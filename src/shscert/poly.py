"""Sparse polynomial algebra with exact univariate nonnegativity checks.

Coefficients are plain doubles. Univariate questions (root counting,
interval minimization) are answered through Sturm sequences built from
normalized pseudo-remainders, so the answers are exact up to the stated
sign tolerance and the root-isolation width. Multivariate nonnegativity
falls back to a Lipschitz-guarded grid check and is deliberately
tri-state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# Any sign decision closer to zero than this is treated as zero, both in
# Sturm chains and in coefficient bookkeeping.
SIGN_TOL = 1e-12

# Half-width below which an isolated root bracket is accepted.
ROOT_WIDTH = 1e-10


class Polynomial:
    """Immutable sparse polynomial over named variables.

    Terms map exponent tuples (aligned with ``vars``) to nonzero float
    coefficients. Variables are kept sorted so structurally equal
    polynomials compare equal regardless of construction order.
    """

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], float]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        order = tuple(sorted(vs))
        remap = [vs.index(v) for v in order]
        clean: dict[tuple[int, ...], float] = {}
        for exp, coef in terms.items():
            if len(exp) != len(vs):
                raise ValueError(f"exponent {exp} does not match variables {vs}")
            if any(e < 0 or int(e) != e for e in exp):
                raise ValueError(f"exponents must be non-negative integers, got {exp}")
            c = float(coef)
            if c == 0.0:
                continue
            key = tuple(int(exp[i]) for i in remap)
            c = clean.get(key, 0.0) + c
            if c == 0.0:
                clean.pop(key, None)
            else:
                clean[key] = c
        self.vars: tuple[str, ...] = order
        self.terms: dict[tuple[int, ...], float] = clean
        self._compiled: dict[tuple[str, ...], object] = {}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value: float) -> "Polynomial":
        return Polynomial((), {(): float(value)} if value else {})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial((name,), {(1,): 1.0})

    @staticmethod
    def univariate(name: str, coeffs: Sequence[float]) -> "Polynomial":
        """Build from dense ascending coefficients c0 + c1*v + c2*v^2 + ..."""
        return Polynomial((name,), {(k,): c for k, c in enumerate(coeffs)})

    # -- bookkeeping ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def effective_vars(self) -> tuple[str, ...]:
        """Variables that actually occur with a positive exponent."""
        used = [False] * len(self.vars)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def constant_value(self) -> float:
        """Value of a polynomial with no effective variables."""
        if self.effective_vars():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.vars), 0.0)

    def _aligned(self, other: "Polynomial") -> tuple[tuple[str, ...], dict, dict]:
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))

        def remap(p: "Polynomial") -> dict:
            pos = [allvars.index(v) for v in p.vars]
            out: dict[tuple[int, ...], float] = {}
            for exp, c in p.terms.items():
                key = [0] * len(allvars)
                for i, e in enumerate(exp):
                    key[pos[i]] = e
                out[tuple(key)] = c
            return out

        return allvars, remap(self), remap(other)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        allvars, a, b = self._aligned(other)
        out = dict(a)
        for exp, c in b.items():
            out[exp] = out.get(exp, 0.0) + c
        return Polynomial(allvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial(self.vars, {e: c * other for e, c in self.terms.items()})
        other = _as_poly(other)
        allvars, a, b = self._aligned(other)
        out: dict[tuple[int, ...], float] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(allvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        if k == 0:
            return Polynomial.constant(1.0)
        # square-and-multiply from the lowest set bit of k: no leading
        # 1 * base and no squaring after the last bit
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def allclose(self, other: "Polynomial", tol: float = SIGN_TOL) -> bool:
        _, a, b = self._aligned(other)
        keys = set(a) | set(b)
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exp) if e
            )
            bits.append(f"{c:+g}*{mono}" if mono else f"{c:+g}")
        return f"Polynomial({' '.join(bits)})"

    # -- evaluation and calculus ------------------------------------------

    def eval(self, point: Mapping[str, float]) -> float:
        missing = [v for v in self.effective_vars() if v not in point]
        if missing:
            raise ValueError(f"unassigned variable(s) {missing} in evaluation point")
        total = 0.0
        for exp, coef in self.terms.items():
            t = coef
            for v, e in zip(self.vars, exp):
                if e:
                    t *= point[v] ** e
            total += t
        return total

    __call__ = eval

    def compiled(self, varorder: tuple[str, ...]):
        """Closure evaluating the polynomial at positional values.

        Values may be scalars or numpy arrays (broadcasting elementwise).
        Each term is a chain of multiplications, one factor per power, so
        Python floats and numpy arrays give bitwise equal results (``**``
        does not) and overflow gives inf instead of raising.
        """
        key = tuple(varorder)
        fn = self._compiled.get(key)
        if fn is not None:
            return fn
        missing = [v for v in self.effective_vars() if v not in key]
        if missing:
            raise ValueError(f"variable(s) {missing} not in evaluation order {key}")
        pos = {v: key.index(v) for v in self.vars if v in key}
        terms = []
        for exp, coef in self.terms.items():
            chain = tuple(pos[v] for v, e in zip(self.vars, exp) for _ in range(e))
            terms.append((coef, chain))

        def fn(vals):
            total = 0.0
            for coef, chain in terms:
                t = coef
                for p in chain:
                    t = t * vals[p]
                total = total + t
            return total

        self._compiled[key] = fn
        return fn

    def derivative(self, var: str) -> "Polynomial":
        if var not in self.vars:
            return Polynomial(self.vars, {})
        i = self.vars.index(var)
        out: dict[tuple[int, ...], float] = {}
        for exp, coef in self.terms.items():
            if exp[i] == 0:
                continue
            key = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
            out[key] = out.get(key, 0.0) + coef * exp[i]
        return Polynomial(self.vars, out)

    def second_derivative(self, var1: str, var2: str | None = None) -> "Polynomial":
        return self.derivative(var1).derivative(var2 if var2 is not None else var1)

    def substitute(self, mapping: Mapping[str, "Polynomial | float"]) -> "Polynomial":
        """Simultaneously replace variables by polynomials (exact composition)."""
        subs = {v: _as_poly(q) for v, q in mapping.items()}
        result = Polynomial.constant(0.0)
        for exp, coef in self.terms.items():
            term = Polynomial.constant(coef)
            for v, e in zip(self.vars, exp):
                if not e:
                    continue
                if v in subs:
                    term = term * subs[v] ** e
                else:
                    term = term * Polynomial((v,), {(e,): 1.0})
            result = result + term
        return result

    def expect(self, moments: Mapping[str, "NoiseMoments"]) -> "Polynomial":
        """Integrate out noise variables using their raw moments.

        Each monomial factor ``w^k`` for a noise variable ``w`` is replaced
        by ``moments[w].get(k)``; independence across components is assumed.
        """
        noise_idx = [(i, v) for i, v in enumerate(self.vars) if v in moments]
        keep = tuple(v for v in self.vars if v not in moments)
        out: dict[tuple[int, ...], float] = {}
        for exp, coef in self.terms.items():
            c = coef
            for i, v in noise_idx:
                if exp[i]:
                    c *= moments[v].get(exp[i])
            key = tuple(e for e, v in zip(exp, self.vars) if v in keep)
            out[key] = out.get(key, 0.0) + c
        return Polynomial(keep, out)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(exp), "coef": coef}
                for exp, coef in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_dict(doc: Mapping) -> "Polynomial":
        vs = tuple(doc["vars"])
        terms = {tuple(t["exp"]): float(t["coef"]) for t in doc["terms"]}
        return Polynomial(vs, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        return Polynomial.from_dict(json.loads(text))

    # -- univariate helpers ------------------------------------------------

    def dense_coeffs(self, var: str | None = None) -> list[float]:
        """Ascending dense coefficients; requires at most one effective var."""
        eff = self.effective_vars()
        if len(eff) > 1:
            raise ValueError(f"polynomial is multivariate in {eff}")
        if var is None:
            var = eff[0] if eff else (self.vars[0] if self.vars else "x")
        if eff and eff[0] != var:
            raise ValueError(f"polynomial is in {eff[0]!r}, not {var!r}")
        out = [0.0] * (self.degree_in(var) + 1) if eff else [0.0]
        i = self.vars.index(var) if var in self.vars else None
        for exp, coef in self.terms.items():
            k = exp[i] if i is not None else 0
            out[k] += coef
        return out


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float)):
        return Polynomial.constant(float(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


@dataclass(frozen=True)
class NoiseMoments:
    """Raw moments m_k = E[w^k] of one scalar noise component, k = 0..d."""

    moments: tuple[float, ...]

    def __post_init__(self):
        m = tuple(float(v) for v in self.moments)
        object.__setattr__(self, "moments", m)
        if not m or abs(m[0] - 1.0) > SIGN_TOL:
            raise ValueError("zeroth moment must be 1")
        if len(m) >= 3 and m[2] - m[1] ** 2 < -SIGN_TOL:
            raise ValueError("moments violate m2 - m1^2 >= 0")

    def get(self, order: int) -> float:
        if order >= len(self.moments):
            raise ValueError(
                f"moment of order {order} required but only orders "
                f"0..{len(self.moments) - 1} available"
            )
        return self.moments[order]

    @staticmethod
    def standard_normal(max_order: int) -> "NoiseMoments":
        """Moments of N(0,1): 0 for odd k, (k-1)!! for even k."""
        ms = [1.0]
        for k in range(1, max_order + 1):
            ms.append(0.0 if k % 2 else ms[k - 2] * (k - 1))
        return NoiseMoments(tuple(ms))


class IntervalBox:
    """Axis-aligned closed box, one interval per named variable."""

    def __init__(self, intervals: Mapping[str, tuple[float, float]]):
        clean: dict[str, tuple[float, float]] = {}
        for v, (lo, hi) in intervals.items():
            lo, hi = float(lo), float(hi)
            if lo > hi:
                raise ValueError(f"empty interval for {v!r}: [{lo}, {hi}]")
            clean[v] = (lo, hi)
        self.intervals = dict(sorted(clean.items()))

    def __getitem__(self, var: str) -> tuple[float, float]:
        return self.intervals[var]

    def __contains__(self, var: str) -> bool:
        return var in self.intervals

    def __iter__(self):
        return iter(self.intervals)

    def __eq__(self, other):
        return isinstance(other, IntervalBox) and self.intervals == other.intervals

    def __repr__(self):
        body = ", ".join(f"{v}=[{lo}, {hi}]" for v, (lo, hi) in self.intervals.items())
        return f"IntervalBox({body})"

    def vars(self) -> tuple[str, ...]:
        return tuple(self.intervals)

    def contains_point(self, point: Mapping[str, float], tol: float = 0.0) -> bool:
        return all(
            lo - tol <= point[v] <= hi + tol for v, (lo, hi) in self.intervals.items()
        )

    def subset_of(self, other: "IntervalBox") -> bool:
        for v, (lo, hi) in self.intervals.items():
            if v not in other:
                return False
            olo, ohi = other[v]
            if lo < olo or hi > ohi:
                return False
        return True

    def sample(self, rng: np.random.Generator) -> dict[str, float]:
        return {
            v: float(rng.uniform(lo, hi)) if hi > lo else lo
            for v, (lo, hi) in self.intervals.items()
        }

    def inequalities(self) -> list[Polynomial]:
        """Canonical polynomial description: v - lo >= 0 and hi - v >= 0."""
        out = []
        for v, (lo, hi) in self.intervals.items():
            x = Polynomial.variable(v)
            out.append(x - lo)
            out.append(hi - x)
        return out

    def to_dict(self) -> dict:
        return {v: [lo, hi] for v, (lo, hi) in self.intervals.items()}

    @staticmethod
    def from_dict(doc: Mapping) -> "IntervalBox":
        return IntervalBox({v: (float(b[0]), float(b[1])) for v, b in doc.items()})


# ---------------------------------------------------------------------------
# Dense univariate machinery (ascending coefficient lists).
# ---------------------------------------------------------------------------


def _trim(c: Sequence[float], tol: float = SIGN_TOL) -> list[float]:
    scale = max((abs(x) for x in c), default=0.0)
    cut = tol * max(scale, 1.0)
    out = [x if abs(x) > cut else 0.0 for x in c]
    while out and out[-1] == 0.0:
        out.pop()
    return out


def _normalize(c: list[float]) -> list[float]:
    scale = max((abs(x) for x in c), default=0.0)
    return [x / scale for x in c] if scale > 0 else list(c)


def _polyval(c: Sequence[float], x: float) -> float:
    total = 0.0
    for coef in reversed(c):
        total = total * x + coef
    return total


def _polyder(c: Sequence[float]) -> list[float]:
    return [k * c[k] for k in range(1, len(c))]


def _divmod_dense(a: list[float], b: list[float]) -> tuple[list[float], list[float]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0.0] * max(len(a) - len(b) + 1, 1)
    db, lead = len(b) - 1, b[-1]
    while len(r) - 1 >= db and _trim(r):
        dr = len(r) - 1
        f = r[-1] / lead
        q[dr - db] = f
        for i in range(db + 1):
            r[dr - db + i] -= f * b[i]
        r.pop()
        while r and r[-1] == 0.0:
            r.pop()
    return q, _trim(r, SIGN_TOL)


def _gcd_dense(a: list[float], b: list[float]) -> list[float]:
    a, b = _normalize(_trim(a)), _normalize(_trim(b))
    while b:
        _, r = _divmod_dense(a, b)
        a, b = b, _normalize(_trim(r))
    return a


def _square_free(c: list[float]) -> list[float]:
    c = _trim(c)
    if len(c) <= 2:
        return c
    g = _gcd_dense(c, _polyder(c))
    if len(g) <= 1:
        return c
    q, _ = _divmod_dense(c, g)
    return _trim(q)


def _sturm_chain(c: list[float]) -> list[list[float]]:
    p0 = _normalize(_trim(c))
    chain = [p0]
    d = _trim(_polyder(p0))
    if d:
        chain.append(_normalize(d))
    while len(chain[-1]) > 1:
        _, r = _divmod_dense(chain[-2], chain[-1])
        r = _trim([-x for x in r])
        if not r:
            break
        chain.append(_normalize(r))
    return chain


def _sign_variations(chain: list[list[float]], x: float) -> int:
    signs = []
    for c in chain:
        v = _polyval(c, x)
        if abs(v) <= SIGN_TOL:
            continue
        signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _coerce_univariate(p: Polynomial) -> list[float]:
    c = _trim(p.dense_coeffs())
    return c


def sturm_root_count(p: Polynomial, a: float, b: float) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if a >= b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    c = _coerce_univariate(p)
    if not c:
        raise ValueError("root counting of the zero polynomial is undefined")
    if len(c) == 1:
        return 0
    chain = _sturm_chain(_square_free(c))
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _isolate_roots(c: list[float], a: float, b: float, width: float = ROOT_WIDTH) -> list[float]:
    """Approximate all distinct real roots of dense poly c in (a, b]."""
    c = _square_free(_trim(c))
    if len(c) <= 1:
        return []
    chain = _sturm_chain(c)

    def var(x: float) -> int:
        return _sign_variations(chain, x)

    roots: list[float] = []
    stack = [(a, b, var(a), var(b))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n <= 0:
            continue
        if hi - lo <= width:
            roots.append(0.5 * (lo + hi))
            continue
        mid = 0.5 * (lo + hi)
        vmid = var(mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    return sorted(roots)


def interval_candidates(dp: Sequence[float], a: float, b: float) -> list[float]:
    """Sorted candidate minimizers on [a < b] of a polynomial with derivative dp.

    dp holds dense ascending coefficients. The candidates are the
    endpoints, every real root of dp inside (a, b) isolated to width 1e-10,
    and a 33-point grid as a numerical safety net.
    """
    candidates = {a, b}
    candidates.update(x for x in _isolate_roots(dp, a, b) if a < x < b)
    candidates.update(float(x) for x in np.linspace(a, b, 33))
    return sorted(candidates)


def min_on_interval(
    p: Polynomial, a: float, b: float, candidates=interval_candidates
) -> tuple[float, float]:
    """Minimum of a univariate polynomial on [a, b] with its argmin.

    p is evaluated at ``candidates(p', a, b)`` (by default
    interval_candidates) and ties are broken toward the smaller argument.
    A replacement must return what interval_candidates would.
    """
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    eff = p.effective_vars()
    if len(eff) > 1:
        raise ValueError(f"polynomial is multivariate in {eff}")
    if not eff or a == b:
        v = p.eval({eff[0]: a}) if eff else p.constant_value()
        return v, a
    c = p.dense_coeffs(eff[0])
    best_x, best_v = None, math.inf
    for x in candidates(_polyder(c), a, b):
        v = _polyval(c, x)
        if v < best_v:
            best_x, best_v = x, v
    return best_v, best_x


@dataclass(frozen=True)
class NonnegReport:
    """Outcome of a nonnegativity check over a box.

    status is one of "holds", "fails", "inconclusive". margin is the exact
    interval minimum in the univariate case and the sampled grid minimum
    otherwise. witness points at a negative value when status is "fails".
    """

    status: str
    margin: float
    witness: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "holds"

    def to_dict(self) -> dict:
        return {"status": self.status, "margin": self.margin, "witness": self.witness}


def _lipschitz_bound(p: Polynomial, box: IntervalBox) -> float:
    """Euclidean-norm Lipschitz constant bound from coefficient sums."""
    caps = {v: max(abs(lo), abs(hi)) for v, (lo, hi) in box.intervals.items()}
    total = 0.0
    for var in p.effective_vars():
        li = 0.0
        for exp, coef in p.terms.items():
            i = p.vars.index(var)
            if exp[i] == 0:
                continue
            t = abs(coef) * exp[i]
            for v, e in zip(p.vars, exp):
                ee = e - 1 if v == var else e
                if ee:
                    t *= caps[v] ** ee
            li += t
        total += li * li
    return math.sqrt(total)


def nonneg_on_box(
    p: Polynomial,
    box: IntervalBox,
    grid_budget: int = 200_000,
    candidates=interval_candidates,
) -> NonnegReport:
    """Check p >= 0 on the box.

    Univariate polynomials are decided exactly through min_on_interval,
    which gets ``candidates``.
    Multivariate ones get a grid scan with a Lipschitz safety margin and
    may come back "inconclusive".
    """
    eff = p.effective_vars()
    missing = [v for v in eff if v not in box]
    if missing:
        raise ValueError(f"box does not cover variable(s) {missing}")

    lows = {v: box[v][0] for v in box}
    if len(eff) == 0:
        c = p.constant_value()
        status = "holds" if c >= 0 else "fails"
        return NonnegReport(status, c, None if c >= 0 else dict(lows))

    if len(eff) == 1:
        var = eff[0]
        lo, hi = box[var]
        value, arg = min_on_interval(p, lo, hi, candidates)
        if value >= -1e-9:
            return NonnegReport("holds", value, None)
        witness = dict(lows)
        witness[var] = arg
        return NonnegReport("fails", value, witness)

    n = len(eff)
    pts_per_dim = max(2, int(grid_budget ** (1.0 / n)))
    axes = [np.linspace(*box[v], pts_per_dim) for v in eff]
    # open mesh: powers of one variable stay on its axis, and only sums and
    # mixed products broadcast to the full grid
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    values = np.broadcast_to(p.compiled(tuple(eff))(mesh), (pts_per_dim,) * n)
    at = np.unravel_index(int(np.argmin(values)), values.shape)
    gmin = float(values[at])
    witness = dict(lows)
    for v, axis, i in zip(eff, axes, at):
        witness[v] = float(axis[i])
    if gmin < 0:
        return NonnegReport("fails", gmin, witness)
    steps = [(box[v][1] - box[v][0]) / (pts_per_dim - 1) for v in eff]
    radius = 0.5 * math.sqrt(sum(h * h for h in steps))
    lip = _lipschitz_bound(p, box)
    if gmin >= lip * radius:
        return NonnegReport("holds", gmin, None)
    return NonnegReport("inconclusive", gmin, None)
