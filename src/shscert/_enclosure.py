"""Bernstein enclosure of a multivariate polynomial on a box (Garloff
1986; Munoz & Narkawicz, J. Autom. Reasoning 2013).

On a box, p is a combination of tensor Bernstein polynomials, which are
nonnegative and sum to one, so p is at least its least Bernstein
coefficient there; halving a box by de Casteljau tightens that bound.
``poly.nonneg_on_box`` imports this module for its multivariate case
only, so univariate checks never load numpy.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Sequence

import numpy as np

from .poly import Polynomial

# Boxes a multivariate check examines before it gives up as "inconclusive".
BOX_BUDGET = 256

# Unit roundoff of double precision, round to nearest.
_U = 2.0**-53


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error of k rounded
    operations (Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    return k * _U / (1.0 - k * _U)


def bernstein_matrix(d: int, lo: float, hi: float) -> tuple[np.ndarray, int]:
    """Integer matrix n and integer q such that n / q takes the ascending
    coefficients of a degree-d polynomial in v to its Bernstein
    coefficients on [lo, hi], exactly. On a point interval n is one row:
    degree 0 in the box's parameter.

    With v = (a + w t) / s for integers a, w and s, t in [0, 1], v^k is
    the sum over j of comb(k, j) a^(k-j) w^j t^j / s^k, and
    t^j = sum over i >= j of comb(i, j) / comb(d, j) b_i(t); q = d! s^d
    clears the denominators.
    """
    (a, sa), (h, sh) = lo.as_integer_ratio(), hi.as_integer_ratio()
    s = max(sa, sh)  # both are powers of two
    a, w = a * (s // sa), h * (s // sh) - a * (s // sa)
    shift = np.zeros((d + 1, d + 1), dtype=object)
    basis = np.zeros((d + 1 if w else 1, d + 1), dtype=object)
    for k in range(d + 1):
        for j in range(k + 1):
            shift[j, k] = math.comb(k, j) * a ** (k - j) * w**j * s ** (d - k)
            if k < len(basis):
                basis[k, j] = math.comb(k, j) * math.factorial(j) * math.factorial(d - j)
    return basis @ shift, math.factorial(d) * s**d


def _rounded(num: int, den: int) -> float:
    """num / den correctly rounded; infinite where it overflows."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def bernstein(
    p: Polynomial, eff: tuple[str, ...], bounds: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, float]:
    """Bernstein coefficients of p on the box ``bounds`` (one interval per
    variable of eff, two or more), one axis per variable, and a bound on
    their error.

    The transform runs in integers, so each float coefficient is the exact
    one correctly rounded: off by at most half an ulp of itself, and so by
    at most an ulp of the largest magnitude, subnormals included.
    """
    idx = [p.vars.index(v) for v in eff]
    den = max(c.as_integer_ratio()[1] for c in p.terms.values())
    nums = np.zeros([max(e[i] for e in p.terms) + 1 for i in idx], dtype=object)
    for exp, c in p.terms.items():
        num, q = c.as_integer_ratio()
        nums[tuple(exp[i] for i in idx)] = num * (den // q)
    for axis, (lo, hi) in enumerate(bounds):
        m, q = bernstein_matrix(nums.shape[axis] - 1, lo, hi)
        # matmul acts on the second-to-last axis; swapping brings each in turn there
        nums = (m @ nums.swapaxes(axis, -2)).swapaxes(axis, -2)
        den *= q
    coeffs = np.array([_rounded(num, den) for num in nums.flat]).reshape(nums.shape)
    return coeffs, math.ulp(float(np.abs(coeffs).max()))


def halving_matrix(d: int) -> np.ndarray:
    """de Casteljau at t = 1/2 for degree d: rows 0..d give the Bernstein
    coefficients on the lower half of the interval, rows d+1..2d+1 those on
    the upper half. Entry (i, j) is comb(i, j) / 2**i, exact while comb fits
    53 bits; the upper half is the lower one reversed."""
    lower = np.array([[math.comb(i, j) / 2**i for j in range(d + 1)] for i in range(d + 1)])
    return np.concatenate([lower, lower[::-1, ::-1]])


def halves(
    coeffs: np.ndarray, err: float, axis: int, halving: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The Bernstein coefficients of the two halves of the box along axis,
    and the error bound that holds for both.

    Each row of a halving matrix is a convex combination, so the parent's
    error passes on unchanged. The product with rounded entries adds at
    most gamma_{d+2} max|coeffs|, two more in the index cover the rounding
    of that product, d + 2 smallest subnormals cover underflow in the
    d + 1 products of a row and in that product, and the sum is rounded up.
    """
    d = coeffs.shape[axis] - 1
    both = halving @ coeffs.swapaxes(axis, -2)
    lower = both[..., : d + 1, :].swapaxes(axis, -2)
    upper = both[..., d + 1 :, :].swapaxes(axis, -2)
    grown = err + _gamma(d + 4) * float(np.abs(coeffs).max()) + (d + 2) * 2.0**-1074
    return lower, upper, math.nextafter(grown, math.inf)


def lower_bound(coeffs: np.ndarray, err: float) -> float:
    """Least coefficient less the error bound, rounded down: a proved lower
    bound of the polynomial on the coefficients' box."""
    return math.nextafter(float(coeffs.min()) - err, -math.inf)


def enclose(
    p: Polynomial, eff: tuple[str, ...], bounds: tuple[tuple[float, float], ...]
) -> tuple[str, float, tuple[float, ...] | None]:
    """Status, margin and negative point (for "fails") of p >= 0 on the box
    ``bounds`` over the variables eff, two or more.

    A box with no width is decided by its value. Otherwise a best-first
    search orders boxes by their lower bound, the least Bernstein
    coefficient less its error bound, with a counter breaking ties. The
    first box popped whose bound is positive proves the rest too: "holds",
    margin that bound. Otherwise the box's corners and midpoint are
    evaluated with ``p.compiled``; a negative value gives "fails" at that
    point. Otherwise the box is halved at the midpoint of its widest axis.
    After BOX_BUDGET boxes, or at a box too narrow to halve, the result is
    "inconclusive" with the least value evaluated.
    """
    f = p.compiled(eff)
    if all(lo == hi for lo, hi in bounds):
        at = tuple(lo for lo, _ in bounds)
        value = f(at)
        if value < 0:
            return "fails", value, at
        return ("holds" if value >= 0 else "inconclusive"), value, None
    coeffs, err = bernstein(p, eff, bounds)
    if not (np.isfinite(coeffs).all() and math.isfinite(err)):
        return "inconclusive", math.nan, None
    halving = {n: halving_matrix(n - 1) for n in coeffs.shape}
    order = itertools.count()
    heap = [(lower_bound(coeffs, err), next(order), bounds, coeffs, err)]
    least, at = math.inf, None
    for _ in range(BOX_BUDGET):
        bound, _, box, coeffs, err = heapq.heappop(heap)
        if bound > 0:
            return "holds", bound, None
        # a zero-width axis gives each corner once
        corners = itertools.product(*(dict.fromkeys(interval) for interval in box))
        for point in (*corners, tuple(0.5 * (lo + hi) for lo, hi in box)):
            value = f(point)
            if value < least:
                least, at = value, point
        if least < 0:
            return "fails", least, at
        axis = max(range(len(box)), key=lambda k: box[k][1] - box[k][0])
        lo, hi = box[axis]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lower, upper, err = halves(coeffs, err, axis, halving[coeffs.shape[axis]])
        for half, piece in (((lo, mid), lower), ((mid, hi), upper)):
            sub = box[:axis] + (half,) + box[axis + 1 :]
            heapq.heappush(heap, (lower_bound(piece, err), next(order), sub, piece, err))
    return "inconclusive", (least if at is not None else math.nan), None
