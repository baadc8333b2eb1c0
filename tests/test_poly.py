from __future__ import annotations

import itertools
import json
import math
import struct
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shscert import _enclosure, load_case, poly
from shscert.poly import (
    IntervalBox,
    NoiseMoments,
    CHAIN_LEN,
    Polynomial,
    generated,
    min_on_interval,
    nonneg_on_box,
    sturm_root_count,
)

from conftest import allclose

X = Polynomial.variable("x")
B1 = Polynomial.univariate("x", [0.0369, -0.0849, 0.0814, -0.0345, 0.0054])


def horner(coeffs_desc, x):
    total = 0.0
    for c in coeffs_desc:
        total = total * x + c
    return total


class TestEval:
    def test_quadratic(self):
        assert (X**2 + 1).eval({"x": 2.0}) == 5.0

    def test_zero_polynomial(self):
        assert Polynomial((), {}).eval({}) == 0.0

    def test_case_study_certificate_at_seven(self):
        expected = horner([0.0054, -0.0345, 0.0814, -0.0849, 0.0369], 7.0)
        assert B1.eval({"x": 7.0}) == pytest.approx(expected, abs=1e-12)
        assert B1.eval({"x": 7.0}) == pytest.approx(4.5631, abs=1e-4)

    def test_unassigned_variable(self):
        with pytest.raises(ValueError, match="unassigned"):
            (X + Polynomial.variable("y")).eval({"x": 1.0})

    def test_declared_but_unused_variable_not_required(self):
        p = Polynomial(("x", "y"), {(2, 0): 1.0})
        assert p.eval({"x": 3.0}) == 9.0


class TestCalculus:
    def test_derivative_cube(self):
        assert (X**3).derivative("x") == 3 * X**2

    def test_derivative_constant(self):
        assert Polynomial.constant(4.0).derivative("x").is_zero()

    def test_certificate_slope_at_origin(self):
        assert B1.derivative("x").eval({"x": 0.0}) == pytest.approx(-0.0849)

    def test_second_derivative(self):
        assert (X**4).derivative("x").derivative("x") == 12 * X**2


class TestSubstitute:
    def test_shift(self):
        got = (X**2).substitute({"x": X + 0.5})
        assert allclose(got, X**2 + X + 0.25)

    def test_identity(self):
        f2 = 0.01 * X**3 + 0.5 * Polynomial.variable("varsigma")
        assert X.substitute({"x": f2}) == f2

    def test_jump_map_square(self):
        nu = Polynomial.variable("nu")
        w = Polynomial.variable("varsigma")
        got = (X**2).substitute({"x": 0.01 * X**3 + 0.06 * nu + 0.5 * w})
        want = (
            1e-4 * X**6
            + 0.0012 * X**3 * nu
            + 0.01 * X**3 * w
            + 0.0036 * nu**2
            + 0.06 * nu * w
            + 0.25 * w**2
        )
        assert allclose(got, want)

    def test_simultaneous_multivariate_substitution(self):
        y = Polynomial.variable("y")
        p = X * y + y**2
        got = p.substitute({"x": X + y, "y": 2 * y})
        # (x+y)(2y) + (2y)^2, with the original y everywhere at once
        assert allclose(got, 2 * X * y + 6 * y**2)

    def test_substitution_respects_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = Polynomial.univariate("x", rng.uniform(-2, 2, 5))
            q = Polynomial.univariate("x", rng.uniform(-2, 2, 3))
            pt = float(rng.uniform(-2, 2))
            direct = p.substitute({"x": q}).eval({"x": pt})
            via = p.eval({"x": q.eval({"x": pt})})
            assert direct == pytest.approx(via, rel=1e-9, abs=1e-9)


class TestExpect:
    def setup_method(self):
        self.std = NoiseMoments.standard_normal(6)

    def test_square(self):
        w = Polynomial.variable("w")
        assert allclose((w**2).expect({"w": self.std}), Polynomial.constant(1.0))

    def test_shifted_square(self):
        w = Polynomial.variable("w")
        got = ((X + 0.5 * w) ** 2).expect({"w": self.std})
        assert allclose(got, X**2 + 0.25)

    def test_odd_moment_vanishes(self):
        w = Polynomial.variable("w")
        assert (w**3).expect({"w": self.std}).is_zero()

    def test_missing_moment_order_named(self):
        w = Polynomial.variable("w")
        with pytest.raises(ValueError, match="order 8"):
            (w**8).expect({"w": self.std})

    def test_linearity(self):
        rng = np.random.default_rng(11)
        w = Polynomial.variable("w")
        for _ in range(20):
            p = Polynomial(("x", "w"), {(i, j): rng.uniform(-1, 1) for i in range(3) for j in range(3)})
            q = Polynomial(("x", "w"), {(i, j): rng.uniform(-1, 1) for i in range(3) for j in range(3)})
            a, b = rng.uniform(-3, 3, 2)
            lhs = (a * p + b * q).expect({"w": self.std})
            rhs = a * p.expect({"w": self.std}) + b * q.expect({"w": self.std})
            assert allclose(lhs, rhs, tol=1e-12)

    def test_independent_components_factor(self):
        u, v = Polynomial.variable("u"), Polynomial.variable("v")
        got = (u**2 * v**2).expect({"u": self.std, "v": self.std})
        assert allclose(got, Polynomial.constant(1.0))


class TestArithmeticInvariants:
    def test_no_zero_terms_stored(self):
        p = X - X
        assert p.terms == {}
        q = X**2 + 0.0 * X
        assert all(c != 0.0 for c in q.terms.values())

    def test_commutativity_and_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = Polynomial.univariate("x", rng.uniform(-1, 1, 4))
            b = Polynomial.univariate("x", rng.uniform(-1, 1, 4))
            c = Polynomial.univariate("x", rng.uniform(-1, 1, 4))
            assert allclose(a + b, b + a, tol=1e-12)
            assert allclose(a * b, b * a, tol=1e-12)
            assert allclose((a + b) + c, a + (b + c), tol=1e-12)
            assert allclose((a * b) * c, a * (b * c), tol=1e-12)

    def test_json_round_trip(self):
        p = B1 * Polynomial.variable("nu") + 2.5
        assert allclose(Polynomial.from_dict(json.loads(json.dumps(p.to_dict()))), p, tol=0.0)

    def test_json_keeps_term_order(self):
        # the order of the terms is the order of the sum, down to the last bit
        p = Polynomial(("x", "y"), {(0, 1): 1.0, (2, 0): -0.5, (1, 0): 0.25})
        again = Polynomial.from_dict(json.loads(json.dumps(p.to_dict())))
        assert tuple(again.terms) == tuple(p.terms) == ((0, 1), (2, 0), (1, 0))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            X ** (-1)

    def test_power_equals_square_and_multiply(self):
        def reference(base, k):
            result = Polynomial.constant(1.0)
            while k:
                if k & 1:
                    result = result * base
                base = base * base
                k >>= 1
            return result

        y, nu = Polynomial.variable("y"), Polynomial.variable("nu")
        for p in (B1, 0.3 * X - 1.7 * y + 0.1, B1 * nu + 2.5 * y, X - X):
            for k in range(9):
                got, want = p**k, reference(p, k)
                assert got.vars == want.vars
                assert list(got.terms.items()) == list(want.terms.items())

    def test_compiled_requires_effective_vars(self):
        p = X + Polynomial.variable("y")
        with pytest.raises(ValueError, match="not in evaluation order"):
            p.compiled(("x",))
        fn = p.compiled(("y", "x"))
        assert fn((2.0, 1.0)) == 3.0

    def test_json_schema(self):
        doc = B1.to_dict()
        assert doc["vars"] == ["x"]
        assert {"exp": [4], "coef": 0.0054} in doc["terms"]


class TestSturm:
    def test_sqrt_two(self):
        assert sturm_root_count(X**2 - 2, 0, 2) == 1

    def test_three_roots(self):
        p = (X - 1) * (X - 2) * (X - 3)
        assert sturm_root_count(p, 0, 10) == 3

    def test_double_root_counts_once(self):
        assert sturm_root_count((X - 1) ** 2, 0, 8) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sturm_root_count(Polynomial((), {}), 0, 1)

    def test_half_open_interval_convention(self):
        # counts roots in (a, b]: left endpoint excluded, right included
        p = (X - 2) * (X - 5)
        assert sturm_root_count(p, 2, 5) == 1
        assert sturm_root_count(p, 1, 5) == 2
        assert sturm_root_count(p, 2, 4.999) == 0

    def test_against_dense_scan(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 60:
            n_real = int(rng.integers(0, 5))
            n_cplx = int(rng.integers(0, (8 - n_real) // 2 + 1))
            if n_real + 2 * n_cplx < 1:
                continue
            roots = np.sort(rng.uniform(-9, 9, n_real))
            if n_real > 1 and np.min(np.diff(roots)) < 1e-3:
                continue
            coeffs = np.array([1.0])
            for r in roots:
                coeffs = np.convolve(coeffs, [1.0, -r])
            for _ in range(n_cplx):
                re, im = rng.uniform(-3, 3), rng.uniform(0.2, 3)
                coeffs = np.convolve(coeffs, [1.0, -2 * re, re * re + im * im])
            a, b = np.sort(rng.uniform(-10, 10, 2))
            if b - a < 0.1 or any(abs(roots - a) < 1e-3) or any(abs(roots - b) < 1e-3):
                continue
            p = Polynomial.univariate("x", coeffs[::-1])
            grid = np.linspace(a, b, 200_001)
            vals = np.polyval(coeffs, grid)
            signs = np.sign(vals)
            scan = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert sturm_root_count(p, a, b) == scan
            checked += 1


class TestMinOnInterval:
    def test_parabola(self):
        value, arg = min_on_interval((X - 1) ** 2, 0, 8)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert arg == pytest.approx(1.0, abs=1e-6)

    def test_linear(self):
        assert min_on_interval(X - 3, 0, 8) == (-3.0, 0.0)

    def test_certificate_on_initial_box(self):
        value, _ = min_on_interval(B1, 0, 1.5)
        assert 0.0 <= value <= 0.13
        grid = np.linspace(0, 1.5, 1_000_001)
        dense = float(np.min(np.polyval([0.0054, -0.0345, 0.0814, -0.0849, 0.0369], grid)))
        assert value == pytest.approx(dense, abs=1e-9)

    def test_degenerate_interval(self):
        assert min_on_interval(B1, 2.0, 2.0)[1] == 2.0

    def test_constant_polynomial(self):
        assert min_on_interval(Polynomial.constant(4.0), 0, 1) == (4.0, 0.0)

    def test_lower_bounds_random_points(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = Polynomial.univariate("x", rng.uniform(-2, 2, 7))
            a, b = np.sort(rng.uniform(-5, 5, 2))
            if b - a < 1e-6:
                continue
            value, _ = min_on_interval(p, a, b)
            xs = rng.uniform(a, b, 1000)
            vals = np.polyval(p.dense_coeffs()[::-1], xs)
            assert value <= float(np.min(vals)) + 1e-9

    def test_argmin_tie_breaks_small(self):
        p = (X - 1) ** 2 * (X - 3) ** 2  # equal minima at 1 and 3
        _, arg = min_on_interval(p, 0, 4)
        assert arg == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "coeffs, a, b",
        [
            ([math.nan, 1.0], 0, 8),
            ([math.nan] * 3, 0, 8),
            ([1.0, 0.0, math.nan], 0, 8),
            ([math.inf, 1.0], 0, 8),
            ([math.nan, 1.0], 2, 2),
            ([math.nan], 0, 8),
        ],
    )
    def test_non_finite_coefficient_gives_nan(self, coeffs, a, b):
        value, arg = min_on_interval(Polynomial.univariate("x", coeffs), a, b)
        assert math.isnan(value) and arg == a

    @pytest.mark.parametrize("a, b", [(0, math.inf), (-math.inf, 0), (math.nan, 8)])
    def test_non_finite_endpoints_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite endpoints"):
            min_on_interval(X - 3, a, b)

    def test_memo_tells_signed_zeros_apart(self):
        # -0.0 == 0.0, so a memo keyed on values would hand the second call
        # the first one's candidates, whose least is +0.0
        assert math.copysign(1.0, min_on_interval(X, 0.0, 1.0)[1]) == 1.0
        assert math.copysign(1.0, min_on_interval(X, -0.0, 1.0)[1]) == -1.0


class TestNonnegOnBox:
    def test_univariate_holds(self):
        rep = nonneg_on_box((X - 1) ** 2, IntervalBox({"x": (0, 8)}))
        assert rep.status == "holds"
        assert rep.margin == pytest.approx(0.0, abs=1e-9)

    def test_univariate_fails_with_witness(self):
        rep = nonneg_on_box(X - 3, IntervalBox({"x": (0, 8)}))
        assert rep.status == "fails"
        assert rep.witness == {"x": 0.0}

    def test_unsafe_level_set_direction(self):
        # eta - B fails on the unsafe box, while B - eta holds there
        box = IntervalBox({"x": (7, 8)})
        assert nonneg_on_box(4.4 - B1, box).status == "fails"
        held = nonneg_on_box(B1 - 4.4, box)
        assert held.status == "holds"
        assert held.margin == pytest.approx(0.1631, abs=1e-3)

    def test_multivariate_holds(self):
        y = Polynomial.variable("y")
        p = (X - 1) ** 2 + (y - 2) ** 2 + 0.5
        rep = nonneg_on_box(p, IntervalBox({"x": (0, 3), "y": (0, 4)}))
        assert rep.status == "holds"

    def test_multivariate_fails(self):
        y = Polynomial.variable("y")
        rep = nonneg_on_box(X * y - 5, IntervalBox({"x": (0, 3), "y": (0, 4)}))
        assert rep.status == "fails"
        assert rep.witness is not None
        assert X.eval(rep.witness) * y.eval(rep.witness) - 5 < 0

    def test_multivariate_inconclusive(self):
        y = Polynomial.variable("y")
        rep = nonneg_on_box((X - y) ** 2, IntervalBox({"x": (0, 1), "y": (0, 1)}))
        assert rep.status == "inconclusive"

    def test_missing_box_variable(self):
        with pytest.raises(ValueError, match="does not cover"):
            nonneg_on_box(X + Polynomial.variable("y"), IntervalBox({"x": (0, 1)}))

    @pytest.mark.parametrize(
        "p",
        [
            Polynomial.constant(math.nan),
            Polynomial.univariate("x", [math.nan, 0.0, 1.0]),
            (X - 1) ** 2 + math.nan,
            X * Polynomial.variable("y") + math.nan,
            (X - 1) ** 2 + math.inf,
            X * Polynomial.variable("y") + math.inf,
        ],
        ids=[
            "constant", "univariate-all-nan", "univariate-constant-term", "multivariate",
            "univariate-infinite", "multivariate-infinite",
        ],
    )
    def test_non_finite_coefficient_is_inconclusive(self, p):
        rep = nonneg_on_box(p, IntervalBox({"x": (0, 8), "y": (0, 1)}))
        assert rep.status == "inconclusive" and math.isnan(rep.margin)


class TestNoiseMoments:
    def test_standard_normal_values(self):
        m = NoiseMoments.standard_normal(8)
        assert m.moments[:5] == (1.0, 0.0, 1.0, 0.0, 3.0)
        assert m.get(6) == 15.0
        assert m.get(8) == 105.0

    def test_zeroth_moment_must_be_one(self):
        with pytest.raises(ValueError):
            NoiseMoments((2.0, 0.0, 1.0))

    def test_variance_nonnegative(self):
        with pytest.raises(ValueError):
            NoiseMoments((1.0, 1.0, 0.5))


class TestIntervalBox:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalBox({"x": (2, 1)})

    @pytest.mark.parametrize("bounds", [(0, math.inf), (-math.inf, 0), (math.nan, 8), (0, math.nan)])
    def test_non_finite_interval_rejected(self, bounds):
        with pytest.raises(ValueError, match="non-finite interval"):
            IntervalBox({"x": bounds})

    def test_subset(self):
        inner = IntervalBox({"x": (0, 1.5)})
        outer = IntervalBox({"x": (0, 8)})
        assert inner.subset_of(outer)
        assert not outer.subset_of(inner)

    def test_inequalities(self):
        box = IntervalBox({"x": (0, 8)})
        lo, hi = box.inequalities()
        assert lo.eval({"x": 0.0}) == 0.0 and lo.eval({"x": 3.0}) == 3.0
        assert hi.eval({"x": 8.0}) == 0.0 and hi.eval({"x": 3.0}) == 5.0

    def test_roundtrip(self):
        box = IntervalBox({"x": (0, 8), "y": (-1, 1)})
        assert IntervalBox.from_dict(box.to_dict()) == box


def _chain_value(p: Polynomial, point) -> float:
    """Reference: 0.0 plus each term in term order, each term its
    coefficient times one factor per power."""
    total = 0.0
    for exp, coef in p.terms.items():
        t = coef
        for v, e in zip(p.vars, exp):
            for _ in range(e):
                t = t * point[v]
        total = total + t
    return total


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


NAMES = ("x", "y", "z")
COEFS = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-8.0, 4.0)).map(
    lambda sc: sc[0] * 10.0 ** sc[1]
)
# wide enough that degree-6 products overflow to inf (and sums of
# opposite infinities to nan)
VALUES = st.one_of(
    st.floats(-3.0, 3.0), st.floats(-1e80, 1e80), st.sampled_from((0.0, -0.0, 1e300))
)


@st.composite
def sparse_polynomials(draw):
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 6)] * n).filter(lambda e: sum(e) <= 6)
    terms = draw(st.dictionaries(exps, COEFS, max_size=8))
    return Polynomial(NAMES[:n], terms)


def _exact_bernstein(p: Polynomial, bounds) -> np.ndarray:
    """Bernstein coefficients of p on the box ``bounds`` (one interval of
    Fractions per variable of p), in exact arithmetic: on each axis,
    p(lo + w t) expanded in t, and t^j = sum over i >= j of
    comb(i, j) / comb(d, j) b_i(t); a point interval leaves degree 0."""
    degrees = [max(e[a] for e in p.terms) for a in range(len(p.vars))]
    coeffs = np.full([d + 1 for d in degrees], Fraction(0), dtype=object)
    for exp, c in p.terms.items():
        coeffs[exp] = Fraction(c)
    for axis, (d, (lo, hi)) in enumerate(zip(degrees, bounds)):
        w = hi - lo
        m = np.array(
            [
                [
                    sum(
                        math.comb(k, j) * lo ** (k - j) * w**j
                        * Fraction(math.comb(i, j), math.comb(d, j))
                        for j in range(min(i, k) + 1)
                    )
                    for k in range(d + 1)
                ]
                for i in range(d + 1 if w else 1)
            ],
            dtype=object,
        )
        coeffs = np.moveaxis(np.tensordot(m, coeffs, axes=(1, axis)), 0, axis)
    return coeffs


def _exact_value(p: Polynomial, point) -> Fraction:
    total = Fraction(0)
    for exp, c in p.terms.items():
        t = Fraction(c)
        for x, e in zip(point, exp):
            t *= Fraction(x) ** e
        total += t
    return total


# coefficients of magnitude 1e-6..1e3, either sign
MAGNITUDES = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-6.0, 3.0)).map(
    lambda sc: sc[0] * 10.0 ** sc[1]
)
# degree <= 6 per variable; terms need not use every variable
BOX_POLYS = st.integers(2, 3).flatmap(
    lambda n: st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * n), MAGNITUDES, min_size=1, max_size=8
    ).map(lambda terms: Polynomial(NAMES[:n], terms))
)
WIDTHS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
BOX_INTERVALS = st.tuples(st.floats(-10.0, 10.0), WIDTHS).map(lambda lw: (lw[0], lw[0] + lw[1]))


class TestBernsteinEnclosure:
    @staticmethod
    def assert_within(coeffs: np.ndarray, err: float, exact: np.ndarray) -> None:
        assert coeffs.shape == exact.shape and math.isfinite(err)
        worst = max(abs(Fraction(float(c)) - e) for c, e in zip(coeffs.flat, exact.flat))
        assert worst <= Fraction(err)

    @settings(max_examples=60, deadline=None)
    @given(p=BOX_POLYS, data=st.data())
    def test_float_coefficients_within_the_error_bound(self, p, data):
        bounds = [data.draw(BOX_INTERVALS) for _ in p.vars]
        coeffs, err = _enclosure.bernstein(p, p.vars, bounds)
        exact = [(Fraction(lo), Fraction(hi)) for lo, hi in bounds]
        self.assert_within(coeffs, err, _exact_bernstein(p, exact))
        for _ in range(data.draw(st.integers(1, 4))):
            wide = [a for a, (lo, hi) in enumerate(exact) if lo < hi]
            if not wide:
                break
            axis = data.draw(st.sampled_from(wide))
            halving = _enclosure.halving_matrix(coeffs.shape[axis] - 1)
            lower, upper, err = _enclosure.halves(coeffs, err, axis, halving)
            lo, hi = exact[axis]
            mid = (lo + hi) / 2
            if data.draw(st.booleans()):
                coeffs, exact[axis] = lower, (lo, mid)
            else:
                coeffs, exact[axis] = upper, (mid, hi)
            self.assert_within(coeffs, err, _exact_bernstein(p, exact))

    @settings(max_examples=60, deadline=None)
    @given(
        q=sparse_polynomials().filter(lambda q: q.effective_vars() == ("x", "y")),
        square=st.booleans(),
        offset=st.floats(-1.0, 1.0),
        x=st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 3.0)),
        y=BOX_INTERVALS,
    )
    def test_statuses_are_sound_and_repeat(self, q, square, offset, x, y):
        p = (q * q if square else q) + offset
        bounds = ((x[0], x[0] + x[1]), y)
        box = IntervalBox(dict(zip(("x", "y"), bounds)))
        rep = nonneg_on_box(p, box)
        assert repr(nonneg_on_box(Polynomial(p.vars, p.terms), box)) == repr(rep)
        if rep.status == "fails":
            at = (rep.witness["x"], rep.witness["y"])
            assert rep.margin < 0 and p.compiled(("x", "y"))(at) == rep.margin
            assert all(lo <= v <= hi for v, (lo, hi) in zip(at, bounds))
        elif rep.status == "holds":
            sample = itertools.product(*(np.linspace(lo, hi, 7) for lo, hi in bounds))
            assert 0 < rep.margin <= min(_exact_value(p, pt) for pt in sample)

    def test_tight_two_state_condition_holds(self):
        # case 1's certificate summed over a two-state copy, on its state
        # set; the grid check it replaces left this inconclusive
        y = Polynomial.variable("y")
        p = B1 + B1.substitute({"x": y})
        rep = nonneg_on_box(p, IntervalBox({"x": (0, 8), "y": (0, 8)}))
        axis = np.linspace(0.0, 8.0, 801)
        dense = p.compiled(("x", "y"))(np.meshgrid(axis, axis, sparse=True))
        assert rep.status == "holds" and 0 < rep.margin <= dense.min()

    def test_overflowing_coefficients_are_inconclusive(self):
        y = Polynomial.variable("y")
        p = X**4 * y**4 + 1.0
        rep = nonneg_on_box(p, IntervalBox({"x": (0, 1e40), "y": (0, 1e40)}))
        assert rep.status == "inconclusive" and math.isnan(rep.margin)

    @pytest.mark.parametrize("y, status", [(0.25, "fails"), (1.0, "holds")])
    def test_point_box_is_decided_by_its_value(self, y, status):
        p = X * Polynomial.variable("y") - 1.0
        rep = nonneg_on_box(p, IntervalBox({"x": (2, 2), "y": (y, y)}))
        assert rep.status == status and rep.margin == 2.0 * y - 1.0


class TestGeneratedSource:
    @settings(max_examples=300, deadline=None)
    @given(
        p=sparse_polynomials(),
        order=st.permutations(NAMES),
        points=st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=5),
    )
    @example(p=Polynomial.constant(0.0), order=NAMES, points=[(1.0, 2.0, 3.0)])
    @example(p=Polynomial.constant(-2.5e-8), order=NAMES, points=[(1e300, 0.0, 0.0)])
    @example(
        p=Polynomial(("x", "y"), {(6, 0): 1e4, (0, 6): -1e4}),
        order=NAMES,
        points=[(1e80, 1e80, 0.0)],
    )
    def test_matches_multiplication_chains(self, p, order, points):
        fn = p.compiled(order)
        for pt in points:
            vals = [pt[NAMES.index(v)] for v in order]
            want = _chain_value(p, dict(zip(NAMES, pt)))
            got = fn(vals)
            assert type(got) is float and _same(got, want)
        columns = [np.array([pt[NAMES.index(v)] for pt in points]) for v in order]
        want = np.array([_chain_value(p, dict(zip(NAMES, pt))) for pt in points])
        with np.errstate(over="ignore", invalid="ignore"):
            got = np.broadcast_to(fn(columns), want.shape)
        assert np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(
        p=sparse_polynomials(),
        fixed=st.sets(st.sampled_from(NAMES)),
        pt=st.tuples(VALUES, VALUES, VALUES),
    )
    def test_hoisted_products_keep_every_bit(self, p, fixed, pt):
        # each name bound once to its product's text, the expression gives
        # the value of the plain one
        names = {v: f"vals[{i}]" for i, v in enumerate(NAMES)}
        consts: dict[str, float] = {}
        hoisted: dict[str, str] = {}
        expr = p.source(names, consts, fixed, hoisted)
        binds = "".join(f"    {name} = {text}\n" for text, name in hoisted.items())
        fn = generated(f"def f(vals):\n{binds}    return {expr}\n", consts, "f")
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same(fn(pt), _chain_value(p, dict(zip(NAMES, pt))))
        if fixed == set(NAMES):
            assert "vals" not in expr
        if not fixed:
            assert not hoisted and expr == p.source(names, {})

    def test_non_finite_coefficients_are_bound_by_name(self):
        p = Polynomial(("x",), {(0,): math.inf, (1,): -2.0, (2,): math.nan})
        consts: dict[str, float] = {}
        src = p.source({"x": "a"}, consts)
        assert "inf" not in src and "nan" not in src
        assert sorted(consts) == ["_k0", "_k1"]
        assert math.isnan(p.compiled(("x",))((1.0,)))
        q = Polynomial(("x",), {(0,): -math.inf, (1,): 2.0})
        assert q.compiled(("x",))((3.0,)) == -math.inf

    def test_unused_variables_need_no_name(self):
        # listed with exponent 0 in every term: left out of the order, or
        # of every name, the polynomial still compiles
        p = Polynomial(("x", "y", "z"), {(2, 0, 0): 1.5, (0, 0, 0): -2.0, (1, 0, 0): 0.25})
        assert p.compiled(("x",))((3.0,)) == _chain_value(p, {"x": 3.0})
        assert p.compiled(("z", "x"))((9.0, 3.0)) == _chain_value(p, {"x": 3.0})
        assert Polynomial.univariate("x", [0.6]).source({}, {}) == "0.0 + 0.6"
        assert Polynomial(("x", "y"), {}).source({}, {}) == "0.0"

    def test_grid_check_ignores_unused_variable(self):
        p = Polynomial(("x", "y", "z"), {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 0): -0.5})
        box = IntervalBox({"x": (-1, 1), "y": (-1, 1)})
        report = nonneg_on_box(p, box)
        assert report.status == "fails" and report.margin == -0.5

    def test_long_runs_compile_and_keep_their_order(self):
        # 5000 terms and a term of degree 3 * CHAIN_LEN, past the nesting
        # a single expression allows; values of mixed sign and magnitude so
        # that another order of addition would round differently
        rng = np.random.default_rng(11)
        terms = {}
        while len(terms) < 5000:
            exp = (int(rng.integers(0, 90)), int(rng.integers(0, 90)))
            terms[exp] = float(rng.normal() * 10.0 ** rng.integers(-6, 6))
        terms[(3 * CHAIN_LEN, 1)] = 0.75
        p = Polynomial(("x", "y"), terms)
        fn = p.compiled(("x", "y"))
        points = [(1.001, -0.999), (0.997, 1.002), (-1.0, 0.5), (0.0, 1e-3)]
        for pt in points:
            want = _chain_value(p, dict(zip(("x", "y"), pt)))
            assert fn(pt) == want
        columns = [np.array(c) for c in zip(*points)]
        want = np.array([_chain_value(p, dict(zip(("x", "y"), pt))) for pt in points])
        assert np.array_equal(fn(columns), want)

    def test_generated_code_sees_no_builtins(self):
        # the second function runs the cached code, in a scope as bare
        for _ in range(2):
            with pytest.raises(NameError):
                generated("lambda: open")()


class TestCodeCache:
    @staticmethod
    def kernels(case):
        model = case.model
        return (
            model.scalar_flow,
            model.block_flow,
            model.jump_map,
            case.candidate.Bbar.compiled(model.state_vars),
        )

    @staticmethod
    def outputs(kernels, noise):
        scalar, block, jump, bbar = kernels
        dW, dP, w, x = noise
        substeps = dW.shape[0]
        h = 0.1 / substeps
        u = [np.full_like(x, 0.2)]
        return [
            scalar([x[0]], [0.2], h, math.sqrt(h), dW[..., 0].tolist(), dP[..., 0].tolist(), substeps),
            block([x], u, h, math.sqrt(h), dW, dP, substeps),
            jump([x[0]], [0.2], [w[0]]),
            jump([x], u, [w]),
            bbar([x]),
        ]

    def test_reloaded_case_compiles_nothing(self):
        rng = np.random.default_rng(21)
        n_rows, substeps = 6, 5
        noise = (
            rng.normal(size=(substeps, 1, n_rows)),
            rng.poisson(0.3, size=(substeps, 1, n_rows)).astype(float),
            rng.normal(size=n_rows),
            rng.uniform(0.0, 1.5, size=n_rows),
        )
        first = self.kernels(load_case(2))
        before = poly._code.cache_info()
        second = self.kernels(load_case(2))
        after = poly._code.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + len(second)
        # fresh functions over one code object each
        for f, g in zip(first, second):
            assert f is not g and f.__code__ is g.__code__
            assert f.__globals__ is not g.__globals__
        for got, want in zip(self.outputs(second, noise), self.outputs(first, noise), strict=True):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_constants_stay_with_their_function(self):
        # both sources read ``0.0 + _k0``; each function keeps its own _k0
        up = Polynomial.constant(math.inf).compiled(())
        down = Polynomial.constant(-math.inf).compiled(())
        assert up.__code__ is down.__code__
        assert up(()) == math.inf and down(()) == -math.inf

    def test_cache_stops_at_its_bound(self):
        texts = [f"lambda: {i}" for i in range(poly.CODE_CACHE + 10)]
        for text in texts:
            generated(text)
        info = poly._code.cache_info()
        assert info.maxsize == poly.CODE_CACHE and info.currsize == poly.CODE_CACHE
        # the newest text is kept and the oldest went first
        generated(texts[-1])
        assert poly._code.cache_info().hits == info.hits + 1
        generated(texts[0])
        assert poly._code.cache_info().misses == info.misses + 1


# -- the float kernel against the algorithms it replaced ---------------------
#
# The references below are the earlier forms of the kernel: Horner through
# one call per candidate, sign variations from a list of signs, a division
# loop that trims the remainder on every step, a recursive root isolation,
# and a substitution that forms every power from scratch. The kernel must
# give the same bits. The root isolation that counts Sturm sign changes at
# every bisection step, which the sign refinement replaced, is kept too.


def _ref_polyval(c, x):
    total = 0.0
    for coef in reversed(c):
        total = total * x + coef
    return total


def _ref_min(p, a, b, candidates=poly.interval_candidates):
    c = p.dense_coeffs("x")
    best_x, best_v = None, math.inf
    for x in candidates(poly._polyder(c), a, b):
        v = _ref_polyval(c, x)
        if v < best_v:
            best_x, best_v = x, v
    return best_v, best_x


def _ref_sign_variations(chain, x):
    """Over a chain of ascending coefficient lists."""
    signs = []
    for c in chain:
        v = _ref_polyval(c, x)
        if abs(v) <= poly.SIGN_TOL:
            continue
        signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_divmod_dense(a, b):
    r = list(a)
    q = [0.0] * max(len(a) - len(b) + 1, 1)
    db, lead = len(b) - 1, b[-1]
    while len(r) - 1 >= db and poly._trim(r):
        dr = len(r) - 1
        f = r[-1] / lead
        q[dr - db] = f
        for i in range(db + 1):
            r[dr - db + i] -= f * b[i]
        r.pop()
        while r and r[-1] == 0.0:
            r.pop()
    return q, poly._trim(r, poly.SIGN_TOL)


def _ref_sturm_chain(c):
    """The Sturm chain, each member ascending, as two remainder sequences
    built it: a gcd of c and the derivative of the unnormalized c, c divided
    by that gcd where it is not constant, then the chain of the quotient."""
    c = poly._trim(c)
    if len(c) > 2:
        a, b = poly._normalize(c), poly._normalize(poly._trim(poly._polyder(c)))
        while b:
            _, r = poly._divmod_dense(a, b)
            a, b = b, poly._normalize(poly._trim(r))
        if len(a) > 1:
            c = poly._trim(poly._divmod_dense(c, a)[0])
    p0 = poly._normalize(poly._trim(c))
    chain = [p0]
    d = poly._trim(poly._polyder(p0))
    if d:
        chain.append(poly._normalize(d))
    while len(chain[-1]) > 1:
        _, r = poly._divmod_dense(chain[-2], chain[-1])
        r = poly._trim([-x for x in r])
        if not r:
            break
        chain.append(poly._normalize(r))
    return chain


def _ref_isolate_roots(c, a, b, width=poly.ROOT_WIDTH):
    """Sturm bisection until a bracket holds one distinct root; then, where
    the square-free part of c has strictly opposite signs at the ends, not
    both within SIGN_TOL of 0, bisection on its sign, stopping at an exact 0."""
    chain = [d[::-1] for d in poly._sturm_chain(poly._trim(c))]
    if len(chain[0]) <= 1:
        return []

    def var(x):
        return _ref_sign_variations(chain, x)

    def sign(x):
        v = _ref_polyval(chain[0], x)
        return (v > 0) - (v < 0)

    def refine(lo, hi, vlo, vhi):
        if vlo - vhi <= 0:
            return []
        if hi - lo <= width:
            return [0.5 * (lo + hi)]
        clear = max(abs(_ref_polyval(chain[0], x)) for x in (lo, hi)) > poly.SIGN_TOL
        if vlo - vhi == 1 and clear and sign(lo) * sign(hi) == -1:
            s = sign(lo)
            while hi - lo > width:
                mid = 0.5 * (lo + hi)
                if sign(mid) == 0:
                    return [mid]
                lo, hi = (mid, hi) if sign(mid) == s else (lo, mid)
            return [0.5 * (lo + hi)]
        mid = 0.5 * (lo + hi)
        vmid = var(mid)
        return refine(lo, mid, vlo, vmid) + refine(mid, hi, vmid, vhi)

    return sorted(refine(a, b, var(a), var(b)))


def _ref_isolate_roots_sturm(c, a, b, width=poly.ROOT_WIDTH):
    """Bisection with a full Sturm sign count at every step, down to width,
    on the Sturm chain of the square-free part of c."""
    chain = [d[::-1] for d in poly._sturm_chain(poly._trim(c))]
    if len(chain[0]) <= 1:
        return []

    def var(x):
        return _ref_sign_variations(chain, x)

    roots = []
    stack = [(a, b, var(a), var(b))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi <= 0:
            continue
        if hi - lo <= width:
            roots.append(0.5 * (lo + hi))
            continue
        mid = 0.5 * (lo + hi)
        vmid = var(mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    return sorted(roots)


def _ref_substitute(p, mapping):
    subs = {v: q if isinstance(q, Polynomial) else Polynomial.constant(q) for v, q in mapping.items()}
    result = Polynomial.constant(0.0)
    for exp, coef in p.terms.items():
        term = Polynomial.constant(coef)
        for v, e in zip(p.vars, exp):
            if e:
                term = term * (subs[v] ** e if v in subs else Polynomial((v,), {(e,): 1.0}))
        result = result + term
    return result


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _layout(p: Polynomial):
    """Variables, term order, exponent types and coefficient bits."""
    assert all(type(e) is int for exp in p.terms for e in exp)
    assert all(type(c) is float for c in p.terms.values())
    return p.vars, [(exp, _bits(c)) for exp, c in p.terms.items()]


@st.composite
def dense(draw, coefs, max_degree=10):
    """Ascending coefficients of degree 1 to max_degree."""
    c = draw(st.lists(coefs, min_size=2, max_size=max_degree + 1))
    return c if c[-1] else c[:-1] + [1.0]


@st.composite
def clustered(draw, closest=7):
    """Dense coefficients of a polynomial with a cluster of close real roots,
    10**-closest or more apart, a spread of magnitudes, and perhaps a
    complex pair."""
    center = draw(st.floats(-5.0, 5.0))
    spacing = 10.0 ** -draw(st.integers(1, closest))
    roots = [center + k * spacing for k in range(draw(st.integers(2, 4)))]
    c = np.array([draw(COEFS)])
    for r in roots:
        c = np.convolve(c, [-r, 1.0])
    if draw(st.booleans()):
        re, im = draw(st.floats(-3.0, 3.0)), draw(st.floats(1e-3, 3.0))
        c = np.convolve(c, [re * re + im * im, -2.0 * re, 1.0])
    return c.tolist()


@st.composite
def separated_roots(draw):
    """1 to 5 sorted roots in [-5, 5], at least 0.25 apart."""
    first = draw(st.floats(-5.0, 5.0))
    gaps = draw(st.lists(st.floats(0.25, 4.0), max_size=4))
    roots = [first]
    for g in gaps:
        if roots[-1] + g > 5.0:
            break
        roots.append(roots[-1] + g)
    return roots


def _from_roots(roots, lead):
    """Dense ascending coefficients of lead * prod(x - r)."""
    c = np.array([lead])
    for r in roots:
        c = np.convolve(c, [-r, 1.0])
    return c.tolist()


INTERVALS = st.tuples(st.floats(-10.0, 10.0), st.floats(1e-6, 20.0)).map(
    lambda aw: (aw[0], aw[0] + aw[1])
)
# leading coefficients of either sign from 1e-3 to 1e3
LEADS = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-3.0, 3.0)).map(
    lambda se: se[0] * 10.0 ** se[1]
)
# grid ends: signed zeros and subnormals, whose widths can divide to 0
GRID_ENDS = st.one_of(
    st.floats(-1e10, 1e10),
    st.floats(-1e-300, 1e-300),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
)
COEFS_OR_ZERO = st.one_of(COEFS, st.just(0.0))
# values a candidate list may hold: ties, overflow, and NaN
CANDIDATES = st.lists(
    st.one_of(st.sampled_from((-1.0, 1.0, 0.0, 1e200, -1e200, math.inf, math.nan)), VALUES),
    max_size=12,
)


class TestKernelEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.one_of(clustered(), dense(COEFS_OR_ZERO)), interval=INTERVALS)
    def test_min_on_interval(self, coeffs, interval):
        p = Polynomial.univariate("x", coeffs)
        a, b = interval
        got, want = min_on_interval(p, a, b), _ref_min(p, a, b)
        assert (_bits(got[0]), _bits(got[1])) == (_bits(want[0]), _bits(want[1]))

    @settings(max_examples=200, deadline=None)
    @given(coeffs=dense(COEFS), xs=CANDIDATES)
    @example(coeffs=[0.0, 0.0, 1.0], xs=[-1.0, 1.0])  # a tie: the smaller argument
    @example(coeffs=[1.0, 0.0, 1.0], xs=[math.nan, 0.5, -0.5])  # NaN never wins
    @example(coeffs=[1.0, 0.0, 1e300], xs=[1e200, -1e200])  # all overflow
    def test_first_minimum_below_inf(self, coeffs, xs):
        p = Polynomial.univariate("x", coeffs)
        # hypothesis runs the body again per example, so the patch is undone
        # within it
        with mock.patch.object(poly, "_critical_points", lambda key: xs):
            got = min_on_interval(p, -1.0, 1.0)
        want = _ref_min(p, -1.0, 1.0, lambda dp, a, b: xs)
        assert (_bits(got[0]), _bits(got[1])) == (_bits(want[0]), _bits(want[1]))
        if not any(v < math.inf for v in (_ref_polyval(coeffs, x) for x in xs)):
            assert got == (math.inf, None)

    @settings(max_examples=200, deadline=None)
    @given(
        chain=st.lists(
            st.lists(st.one_of(COEFS_OR_ZERO, st.just(math.nan)), min_size=1, max_size=6),
            max_size=6,
        ),
        x=st.one_of(VALUES, st.just(math.nan)),
    )
    @example(chain=[[1.0], [math.nan], [1.0]], x=0.0)  # a NaN counts as negative
    def test_sign_variations(self, chain, x):
        assert poly._sign_variations([c[::-1] for c in chain], x) == _ref_sign_variations(chain, x)

    @settings(max_examples=200, deadline=None)
    @given(a=dense(COEFS_OR_ZERO), b=dense(COEFS, max_degree=5))
    def test_divmod_dense(self, a, b):
        q, r = poly._divmod_dense(a, b)
        q0, r0 = _ref_divmod_dense(a, b)
        assert list(map(_bits, q + r)) == list(map(_bits, q0 + r0)) and len(r) == len(r0)

    @settings(max_examples=300, deadline=None)
    @given(coeffs=clustered(closest=4))
    def test_sturm_chain_on_square_free_inputs(self, coeffs):
        want = _ref_sturm_chain(coeffs)
        # roots 1e-4 or more apart stay apart in floats: the reference keeps
        # the whole input as its square-free part
        assume(len(want[0]) == len(poly._trim(coeffs)))
        got = [d[::-1] for d in poly._sturm_chain(poly._trim(coeffs))]
        assert [list(map(_bits, d)) for d in got] == [list(map(_bits, d)) for d in want]

    @settings(max_examples=300, deadline=None)
    @given(coeffs=clustered(), interval=INTERVALS)
    def test_root_lists_on_clustered_roots(self, coeffs, interval):
        a, b = interval
        got = poly._isolate_roots(coeffs, a, b)
        want = _ref_isolate_roots(coeffs, a, b)
        assert list(map(_bits, got)) == list(map(_bits, want))

    @settings(max_examples=100, deadline=None)
    @given(roots=separated_roots(), lead=LEADS, interval=INTERVALS)
    def test_sign_refinement_finds_as_many_roots_as_sturm_counts(self, roots, lead, interval):
        a, b = interval
        c = _from_roots(roots, lead)
        assert len(_ref_isolate_roots(c, a, b)) == len(_ref_isolate_roots_sturm(c, a, b))

    @settings(max_examples=300, deadline=None)
    @given(a=GRID_ENDS, b=GRID_ENDS)
    @example(a=0.0, b=5e-324)  # the width divides to 0: numpy's other branch
    @example(a=-0.0, b=1.0)
    @example(a=-3e-322, b=-0.0)
    def test_grid_is_linspace(self, a, b):
        want = np.linspace(a, b, 33).tolist()
        assert list(map(_bits, poly._grid(a, b))) == list(map(_bits, want))

    @settings(max_examples=100, deadline=None)
    @given(p=sparse_polynomials(), q=sparse_polynomials(), k=st.integers(0, 4))
    def test_arithmetic_results_are_validated_polynomials(self, p, q, k):
        std = NoiseMoments.standard_normal(12)
        results = [
            p + q, p - q, p * q, p * 2.5, -p, p**k, p.derivative("x"), p.derivative("w"),
            p.expect({"y": std}), p.substitute({"x": q, "z": 0.5}),
        ]
        for r in results:
            assert _layout(r) == _layout(Polynomial(r.vars, r.terms))

    @settings(max_examples=100, deadline=None)
    @given(p=sparse_polynomials(), q=sparse_polynomials(), s=sparse_polynomials())
    def test_substitute_matches_powers_from_scratch(self, p, q, s):
        mapping = {"x": q, "y": s, "z": -1.25}
        assert _layout(p.substitute(mapping)) == _layout(_ref_substitute(p, mapping))
        assert _layout(p.substitute({"y": q})) == _layout(_ref_substitute(p, {"y": q}))


class TestRootIsolation:
    @settings(max_examples=300, deadline=None)
    @given(roots=separated_roots(), lead=LEADS, interval=INTERVALS)
    @example(  # 4.3e-9 off when every bisection step counted Sturm signs
        roots=[2.4335243692945774, 2.9600393929523037, 3.2641569768843137,
               3.6404076412266493, 4.801211634311189],
        lead=-5.713145863513655,
        interval=(-0.38390569135881236, 5.867860350872549),
    )
    def test_each_root_once_within_1e_9(self, roots, lead, interval):
        a, b = interval
        got = poly._isolate_roots(_from_roots(roots, lead), a, b)
        for r in roots:
            if a + 1e-6 < r < b - 1e-6:
                near = [x for x in got if abs(x - r) < 0.125]
                assert len(near) == 1 and abs(near[0] - r) <= 1e-9, (r, got)

    def test_root_beside_an_end_within_sign_tol_is_kept(self):
        # Both ends of the bracket (a, 0.25] evaluate within SIGN_TOL of 0.
        # The Sturm count there counts the root at 0.25; the strict sign
        # change between the ends is the uncounted root at 0, just right of
        # a, and bisecting on it lost the root at 0.25.
        a, b = -2.2250738585072014e-308, 1.0
        got = poly._isolate_roots(_from_roots([0.0, 0.25000000000000006], -1.0), a, b)
        near = [x for x in got if abs(x - 0.25) < 0.125]
        assert len(near) == 1 and abs(near[0] - 0.25) <= 1e-9, got

    def test_sign_counts_stop_once_each_root_is_bracketed(self, monkeypatch):
        # p' = (x - 1)(x - 2)(x - 3): a Sturm count at every bisection step
        # down to ROOT_WIDTH made 108 counts here
        counts = 0
        original = poly._sign_variations

        def counted(chain, x):
            nonlocal counts
            counts += 1
            return original(chain, x)

        monkeypatch.setattr(poly, "_sign_variations", counted)
        p = Polynomial.univariate("x", [0.0, -6.0, 5.5, -2.0, 0.25])
        value, arg = min_on_interval(p, 0.0, 8.0)
        assert value == -2.25 and arg == pytest.approx(1.0, abs=1e-9)
        assert counts <= 48

    def test_square_free_chain_is_one_remainder_sequence(self, monkeypatch):
        # the chain's first two members take no division, each later one
        # takes one; a separate gcd pass made about twice as many
        c = _from_roots([0.5, 1.5, 2.5, 4.0, 6.0], 2.0)
        members = len(poly._sturm_chain(c))
        calls = 0
        original = poly._divmod_dense

        def counted(a, b):
            nonlocal calls
            calls += 1
            return original(a, b)

        monkeypatch.setattr(poly, "_divmod_dense", counted)
        assert sturm_root_count(Polynomial.univariate("x", c), 0.0, 8.0) == 5
        assert len(poly._isolate_roots(c, 0.0, 8.0)) == 5
        assert members == 6 and calls == 2 * (members - 2)

    @pytest.mark.parametrize(
        "roots, distinct",
        [
            ([1.0, 1.0, 1.0, 4.0, 4.0, 6.0], [1.0, 4.0, 6.0]),
            ([2.0, 2.0, 5.0], [2.0, 5.0]),
            ([1.0, 1.0, 3.0, 3.0], [1.0, 3.0]),
        ],
    )
    def test_repeated_roots_count_once(self, roots, distinct):
        c = _from_roots(roots, 1.0)
        assert sturm_root_count(Polynomial.univariate("x", c), 0.0, 8.0) == len(distinct)
        got = poly._isolate_roots(c, 0.0, 8.0)
        assert len(got) == len(distinct)
        assert all(abs(x - r) <= 1e-9 for x, r in zip(got, distinct)), got


class TestHash:
    @settings(max_examples=100, deadline=None)
    @given(p=sparse_polynomials(), pad=st.lists(st.sampled_from(("u", "v", "w")), unique=True, min_size=1))
    def test_unused_variables_change_no_hash(self, p, pad):
        padded = Polynomial(
            p.vars + tuple(pad), {exp + (0,) * len(pad): c for exp, c in p.terms.items()}
        )
        assert padded == p and hash(padded) == hash(p)
        assert len({p, padded}) == 1

    def test_zero_and_constant(self):
        assert hash(Polynomial((), {})) == hash(Polynomial(("x",), {}))
        assert hash(Polynomial.constant(2.0)) == hash(Polynomial(("x",), {(0,): 2.0}))
        assert len({Polynomial(("x", "y"), {(1, 0): 1.0}), X}) == 1


# -- substitution against the kernel before its powers memo ------------------
#
# The references below are the earlier substitute and product: every term
# starts as Polynomial.constant(coef), takes each power by square-and-multiply
# afresh, and is added to the running sum with +; the product runs one loop
# for any number of variables. The kernel must give the same bits, with its
# powers memo cold and warm.


def _ref_unchecked(variables, terms):
    p = object.__new__(Polynomial)
    clean = {}
    for exp, coef in terms.items():
        c = float(coef)
        if c != 0.0:
            clean[exp] = c
    p.vars, p.terms, p._compiled, p._effective = variables, clean, {}, None
    return p


def _ref_aligned(a, b):
    if a.vars == b.vars:
        return a.vars, a.terms, b.terms
    allvars = tuple(sorted(set(a.vars) | set(b.vars)))

    def remap(p):
        pos = [allvars.index(v) for v in p.vars]
        out = {}
        for exp, c in p.terms.items():
            key = [0] * len(allvars)
            for i, e in enumerate(exp):
                key[pos[i]] = e
            out[tuple(key)] = c
        return out

    return allvars, remap(a), remap(b)


def _ref_add(a, b):
    allvars, ta, tb = _ref_aligned(a, b)
    out = dict(ta)
    for exp, c in tb.items():
        out[exp] = out.get(exp, 0.0) + c
    return _ref_unchecked(allvars, out)


def _ref_mul(a, b):
    allvars, ta, tb = _ref_aligned(a, b)
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            key = tuple(map(lambda i, j: i + j, ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return _ref_unchecked(allvars, out)


def _ref_power(squares, k):
    result, j = None, 0
    while k:
        if j == len(squares):
            squares.append(_ref_mul(squares[-1], squares[-1]))
        if k & 1:
            result = squares[j] if result is None else _ref_mul(result, squares[j])
        k >>= 1
        j += 1
    return result


def _ref_substitute_term_by_term(p, mapping):
    squares = {
        v: [q if isinstance(q, Polynomial) else _ref_unchecked((), {(): float(q)})]
        for v, q in mapping.items()
    }
    result = _ref_unchecked((), {})
    for exp, coef in p.terms.items():
        term = _ref_unchecked((), {(): coef})
        for v, e in zip(p.vars, exp):
            if e:
                pw = _ref_power(squares[v], e) if v in squares else _ref_unchecked((v,), {(e,): 1.0})
                term = _ref_mul(term, pw)
        result = _ref_add(result, term)
    return result


# small integers and halves cancel exactly; 1e-200 squared underflows to a
# signed zero and 1e200 squared overflows to inf (and opposite infinities
# sum to nan)
EXACT_COEFS = st.one_of(
    st.sampled_from((1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 3.0, 1e-200, -1e-200, 1e200, -1e200)),
    COEFS,
)


@st.composite
def ordered_polynomials(draw, names=("x", "y", "z", "w")):
    """A polynomial over up to three of ``names``, its terms in a drawn
    order."""
    vs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    exps = st.tuples(*[st.integers(0, 4)] * len(vs)).filter(lambda e: sum(e) <= 5)
    terms = list(draw(st.dictionaries(exps, EXACT_COEFS, max_size=6)).items())
    return Polynomial(vs, dict(draw(st.permutations(terms))))


# float substitutes, signed zeros among them
MAPPED_FLOATS = st.sampled_from((0.0, -0.0, 1.5, -2.0, 1e-200, 1e200))


@st.composite
def mappings(draw):
    """Substitutes for a subset of x, y and z (w is never mapped)."""
    keys = draw(st.lists(st.sampled_from(("x", "y", "z")), max_size=3, unique=True))
    return {k: draw(st.one_of(ordered_polynomials(), MAPPED_FLOATS)) for k in keys}


XY = Polynomial(("x", "y"), {(1, 1): 1.0, (2, 0): 1.0})


class TestSubstitutionMemo:
    @settings(max_examples=400, deadline=None)
    @given(p=ordered_polynomials(), mapping=mappings())
    # two mapped variables in one term, whose products cancel to exactly 0
    @example(p=XY, mapping={"x": X, "y": -X})
    # both signed zeros as substitutes; w stays unmapped
    @example(p=Polynomial(("w", "x", "y"), {(1, 1, 0): 2.0, (0, 0, 1): 1.0}), mapping={"x": -0.0, "y": 0.0})
    # y cancels, then comes back at the end of the term order
    @example(
        p=Polynomial(("x", "y", "z"), {(1, 0, 0): 1.0, (0, 1, 0): -1.0, (0, 0, 0): 1.0, (0, 0, 1): 1.0}),
        mapping={"x": Polynomial.variable("y"), "z": Polynomial.variable("y")},
    )
    def test_bits_match_term_by_term_with_the_memo_cold_and_warm(self, p, mapping):
        want = _layout(_ref_substitute_term_by_term(p, mapping))
        poly._powers.cache_clear()
        assert _layout(p.substitute(mapping)) == want
        assert _layout(p.substitute(mapping)) == want
        assert poly._powers.cache_info().hits >= len(mapping)

    @settings(max_examples=300, deadline=None)
    @given(p=ordered_polynomials(), q=ordered_polynomials(), c=st.one_of(EXACT_COEFS, MAPPED_FLOATS))
    def test_products_and_scalar_sums_match_the_general_loops(self, p, q, c):
        assert _layout(p * q) == _layout(_ref_mul(p, q))
        constant = _ref_unchecked((), {(): c})
        assert _layout(p + c) == _layout(c + p) == _layout(_ref_add(p, constant))

    def test_equal_polynomials_in_another_term_order_get_their_own_entry(self):
        q1 = Polynomial(("x",), {(1,): 1.0, (0,): 0.1})
        q2 = Polynomial(("x",), {(0,): 0.1, (1,): 1.0})
        assert q1 == q2 and hash(q1) == hash(q2)
        p = 0.9 * X**3
        poly._powers.cache_clear()
        got = [p.substitute({"x": q}) for q in (q1, q2)]
        info = poly._powers.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        for r, q in zip(got, (q1, q2)):
            assert _layout(r) == _layout(_ref_substitute_term_by_term(p, {"x": q}))
        # the term order of the substitute is that of the result
        assert list(got[0].terms) == [(3,), (2,), (1,), (0,)]
        assert list(got[1].terms) == [(0,), (1,), (2,), (3,)]

    def test_memo_stops_at_its_bound(self):
        poly._powers.cache_clear()
        for i in range(poly.POWER_MEMO + 10):
            (X**3).substitute({"x": X + float(i)})
        info = poly._powers.cache_info()
        assert info.maxsize == poly.POWER_MEMO and info.currsize == poly.POWER_MEMO
        # the newest substitute is kept and the oldest went first
        (X**3).substitute({"x": X + float(poly.POWER_MEMO + 9)})
        assert poly._powers.cache_info().hits == info.hits + 1
        (X**3).substitute({"x": X + 0.0})
        assert poly._powers.cache_info().misses == info.misses + 1

    def test_nothing_outside_poly_reads_the_memo(self):
        root = Path(poly.__file__).resolve().parents[2]
        sources = [
            *root.glob("src/shscert/*.py"), *root.glob("perfbench/*.py"),
            *root.glob("demos/*.py"), *root.glob("tools/*.py"),
        ]
        assert len(sources) > 10
        for path in sources:
            if path.name != "poly.py":
                # clearing the memo, as a benchmark may between two runs of
                # one operation, reads nothing from it
                text = path.read_text().replace("poly._powers.cache_clear()", "")
                assert "_powers" not in text and "POWER_MEMO" not in text, path
