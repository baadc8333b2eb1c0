"""Sparse polynomial algebra with exact univariate nonnegativity checks.

Coefficients are plain doubles. Univariate questions (root counting,
interval minimization) are answered through Sturm sequences built from
normalized pseudo-remainders, so the answers are exact up to the stated
sign tolerance and the root-isolation width. Multivariate nonnegativity
is checked by Bernstein enclosure with subdivision: its "holds" rests on a
proved lower bound, and it is deliberately tri-state.

Numeric evaluation goes through generated straight-line Python:
``Polynomial.source`` writes a polynomial as one expression over names the
caller picks, and ``generated`` turns source into a function that sees no
builtins. Variable names never enter the source, so names read from input
files cannot inject code, and the expression's fixed order of operations
gives bitwise equal values on Python floats and numpy arrays.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .codec import Codec, decode

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
        self._effective: tuple[str, ...] | None = None

    @classmethod
    def _unchecked(
        cls, variables: tuple[str, ...], terms: Mapping[tuple[int, ...], float]
    ) -> "Polynomial":
        """Arithmetic's constructor, for distinct sorted ``variables`` and
        terms with distinct keys of non-negative ints aligned with them:
        what ``__init__`` keeps of such input, the nonzero ``float``
        coefficients in term order, without its checks."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = {exp: float(c) for exp, c in terms.items() if c != 0.0}
        p._compiled = {}
        p._effective = None
        return p

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value: float) -> "Polynomial":
        return Polynomial._unchecked((), {(): value})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial._unchecked((name,), {(1,): 1.0})

    @staticmethod
    def univariate(name: str, coeffs: Sequence[float]) -> "Polynomial":
        """Build from dense ascending coefficients c0 + c1*v + c2*v^2 + ..."""
        return Polynomial._unchecked((name,), {(k,): c for k, c in enumerate(coeffs)})

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
        if self._effective is None:
            used = [any(col) for col in zip(*self.terms)]
            self._effective = tuple(v for v, u in zip(self.vars, used) if u)
        return self._effective

    def constant_value(self) -> float:
        """Value of a polynomial with no effective variables."""
        if self.effective_vars():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.vars), 0.0)

    def _aligned(self, other: "Polynomial") -> tuple[tuple[str, ...], dict, dict]:
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        return allvars, _remap(self, allvars), _remap(other, allvars)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        allvars, a, b = self._aligned(other)
        out = dict(a)
        for exp, c in b.items():
            out[exp] = out.get(exp, 0.0) + c
        return Polynomial._unchecked(allvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._unchecked(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial._unchecked(self.vars, {e: c * other for e, c in self.terms.items()})
        other = _as_poly(other)
        allvars, a, b = self._aligned(other)
        out: dict[tuple[int, ...], float] = {}
        get = out.get
        # one- and two-variable products (nine in ten of a search's) skip
        # forming each key through map; every loop adds the same products
        # to the same sums in the same order as the general one
        if len(allvars) == 1:
            for (i,), ca in a.items():
                for (j,), cb in b.items():
                    key = (i + j,)
                    out[key] = get(key, 0.0) + ca * cb
        elif len(allvars) == 2:
            for (i, k), ca in a.items():
                for (j, l), cb in b.items():
                    key = (i + j, k + l)
                    out[key] = get(key, 0.0) + ca * cb
        else:
            for ea, ca in a.items():
                for eb, cb in b.items():
                    key = tuple(map(operator.add, ea, eb))
                    out[key] = get(key, 0.0) + ca * cb
        return Polynomial._unchecked(allvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        if k == 0:
            return Polynomial.constant(1.0)
        return _power([self], k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        # over the effective variables only, as __eq__ ignores unused ones
        eff = self.effective_vars()
        idx = [self.vars.index(v) for v in eff]
        return hash((eff, frozenset(
            (tuple(exp[i] for i in idx), c) for exp, c in self.terms.items()
        )))

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

    def source(
        self,
        names: Mapping[str, str],
        consts: dict[str, float],
        fixed: Collection[str] = (),
        hoisted: dict[str, str] | None = None,
    ) -> str:
        """One Python expression for the polynomial over caller-chosen names.

        ``names`` maps each variable to the source text standing for it; the
        variable names themselves never enter the text. The expression is
        ``0.0 + t1 + t2 + ...`` in term order, each term ``coef*v*v*...``
        with one factor per power, so Python floats and numpy arrays give
        bitwise equal results (``**`` does not) and overflow gives inf
        instead of raising. Finite coefficients are ``repr`` literals, which
        read back exactly; a non-finite one is added to ``consts`` under a
        fresh name ``_k<i>``. A run of more than ``CHAIN_LEN`` terms or
        factors is split through the accumulators ``_s`` and ``_t`` (see
        ``_chain``); the caller's names must avoid these three.

        With ``hoisted``, a term whose factors start with one or more of the
        ``fixed`` variables reads the product of its coefficient and those
        factors from a name ``p<i>``, which ``hoisted`` maps to the product's
        text (shared by equal products), so that a caller evaluating the
        expression many times under the same fixed values can bind each name
        once. Products are formed left to right, so the operations and their
        order stay those of the plain expression; the caller's names must
        avoid ``p<i>`` too.
        """
        missing = [v for v in self.effective_vars() if v not in names]
        if missing:
            raise ValueError(f"variable(s) {missing} not in evaluation order {tuple(names)}")
        out = ["0.0"]
        for exp, coef in self.terms.items():
            if math.isfinite(coef):
                lit = repr(coef) if coef > 0 else f"({coef!r})"
            else:
                lit = f"_k{len(consts)}"
                consts[lit] = coef
            factors = [names[v] for v, e in zip(self.vars, exp) for _ in range(e)]
            if hoisted is not None:
                # factors of the variables before the first one not fixed
                lead = next((i for i, v in enumerate(self.vars) if exp[i] and v not in fixed), len(exp))
                free = sum(exp[:lead])
                if free:
                    text = _chain([lit, *factors[:free]], "*", "_t")
                    lit = hoisted.setdefault(text, f"p{len(hoisted)}")
                    factors = factors[free:]
            out.append(_chain([lit, *factors], "*", "_t"))
        return _chain(out, " + ", "_s")

    def compiled(self, varorder: tuple[str, ...]):
        """Function evaluating the polynomial at positional values ``vals``.

        Values may be scalars or numpy arrays (broadcasting elementwise);
        the arithmetic is that of ``source``.
        """
        key = tuple(varorder)
        fn = self._compiled.get(key)
        if fn is None:
            consts: dict[str, float] = {}
            slots = [f"vals[{i}]" for i in range(len(key))]
            expr = self.source(bind_names(key, slots), consts)
            fn = self._compiled[key] = generated(f"lambda vals: {expr}", consts)
        return fn

    def derivative(self, var: str) -> "Polynomial":
        if var not in self.vars:
            return Polynomial._unchecked(self.vars, {})
        i = self.vars.index(var)
        out: dict[tuple[int, ...], float] = {}
        for exp, coef in self.terms.items():
            if exp[i] == 0:
                continue
            key = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
            out[key] = out.get(key, 0.0) + coef * exp[i]
        return Polynomial._unchecked(self.vars, out)

    def substitute(self, mapping: Mapping[str, "Polynomial | float"]) -> "Polynomial":
        """Simultaneously replace variables by polynomials (exact composition).

        Bitwise the sum, in term order, of each term's coefficient times the
        powers of its variables' substitutes, as ``+``, ``*`` and ``**``
        form them. The powers of a substituted polynomial come from a small
        memo keyed on its exact bits (``_powers``), so a polynomial
        substituted again, as a jump map is for every new certificate, is
        not expanded again.
        """
        powers = {v: _powers(exact_key(_as_poly(q))) for v, q in mapping.items()}
        terms = []
        for exp, coef in self.terms.items():
            term = None
            for v, e in zip(self.vars, exp):
                if not e:
                    continue
                pw = powers[v].get(e) if v in powers else Polynomial._unchecked((v,), {(e,): 1.0})
                # pw * coef is Polynomial.constant(coef) * pw, bit for bit
                term = pw * coef if term is None else term * pw
            terms.append(Polynomial.constant(coef) if term is None else term)
        return _sum(terms)

    def expect(self, moments: Mapping[str, "NoiseMoments"]) -> "Polynomial":
        """Integrate out noise variables using their raw moments.

        Each monomial factor ``w^k`` for a noise variable ``w`` is replaced
        by ``moments[w].get(k)``; independence across components is assumed.
        """
        noise_idx = [(i, moments[v]) for i, v in enumerate(self.vars) if v in moments]
        keep_idx = [i for i, v in enumerate(self.vars) if v not in moments]
        keep = tuple(self.vars[i] for i in keep_idx)
        out: dict[tuple[int, ...], float] = {}
        for exp, coef in self.terms.items():
            c = coef
            for i, m in noise_idx:
                if exp[i]:
                    c *= m.get(exp[i])
            key = tuple(exp[i] for i in keep_idx)
            out[key] = out.get(key, 0.0) + c
        return Polynomial._unchecked(keep, out)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return _Written(self.vars, tuple(_Term(e, c) for e, c in self.terms.items())).to_dict()

    @staticmethod
    def from_dict(doc: Mapping) -> "Polynomial":
        doc = _Written.from_dict(doc)
        return Polynomial(doc.vars, {t.exp: t.coef for t in doc.terms})

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


@dataclass(frozen=True)
class _Term(Codec):
    exp: tuple[int, ...]
    coef: float


@dataclass(frozen=True)
class _Written(Codec):  # a polynomial's form in the codec
    vars: tuple[str, ...]
    terms: tuple[_Term, ...]


def bind_names(varorder: Sequence[str], slots: Sequence[str]) -> dict[str, str]:
    """Map each variable of ``varorder`` to the source name in the same
    position of ``slots``; a variable listed twice takes its first."""
    names: dict[str, str] = {}
    for v, slot in zip(varorder, slots):
        names.setdefault(v, slot)
    return names


def generated(source: str, namespace: Mapping[str, object] = {}, name: str | None = None):
    """The function that ``source`` defines: an expression (a lambda), or,
    when ``name`` is given, statements defining ``name``. The code sees no
    builtins, only ``namespace``.

    ``source`` is compiled once per process while it stays among the last
    ``CODE_CACHE`` texts (``_code``); each call runs that code in a fresh
    scope, so functions built from one text share only the immutable code
    object, never globals or the constants bound in ``namespace``."""
    scope = {"__builtins__": {}, **namespace}
    if name is None:
        return eval(_code(source, "eval"), scope)
    exec(_code(source, "exec"), scope)
    # popped, so that the function and its globals form no reference cycle
    # and go with their model as soon as it is dropped
    return scope.pop(name)


# Code objects that _code keeps, least recently used out first. A model or
# candidate parsed again builds its kernels and compiled polynomials from
# the same texts. Measured working sets: the benchmark's cli-session builds
# 39 distinct texts (2720 builds in 600 requests), mc-repro 15 and
# search-repair none, so all of them stay.
CODE_CACHE = 256


@functools.lru_cache(maxsize=CODE_CACHE)
def _code(source: str, mode: str):
    """``source`` compiled in ``mode`` ("eval" or "exec"), as eval and exec
    compile a string."""
    return compile(source, "<string>", mode)


# Longest run of one operator that ``Polynomial.source`` writes as a single
# expression. A left-to-right run nests one level per operand, and Python's
# compiler gives up at about a thousand levels.
CHAIN_LEN = 256


def _chain(operands: Sequence[str], op: str, acc: str) -> str:
    """``operands`` joined by ``op``, evaluated left to right. A longer run
    than ``CHAIN_LEN`` becomes a tuple of pieces that each extend the
    accumulator ``acc`` (``acc := acc op ...``), so the operations and their
    order stay those of the single run while the nesting stays bounded."""
    if len(operands) <= CHAIN_LEN:
        return op.join(operands)
    pieces = [f"{acc} := {op.join(operands[:CHAIN_LEN])}"]
    for k in range(CHAIN_LEN, len(operands), CHAIN_LEN):
        pieces.append(f"{acc} := {op.join([acc, *operands[k : k + CHAIN_LEN]])}")
    return f"({', '.join(pieces)})[-1]"


def _power(squares: list[Polynomial], k: int) -> Polynomial:
    """``squares[0] ** k`` for k >= 1, where ``squares`` holds repeated
    squares of its first entry and gains those this power needs.

    Square-and-multiply from the lowest set bit of k: no leading 1 * base
    and no squaring after the last bit.
    """
    result = None
    j = 0
    while k:
        if j == len(squares):
            squares.append(squares[-1] * squares[-1])
        if k & 1:
            result = squares[j] if result is None else result * squares[j]
        k >>= 1
        j += 1
    return result


def exact_key(p: Polynomial) -> tuple:
    """Key equal for two polynomials only if their variables, ordered terms
    and coefficient bits are. Polynomial.__eq__ and __hash__ ignore term
    order, which changes the bits of sums and products."""
    return p.vars, tuple(p.terms), struct.pack(f"{len(p.terms)}d", *p.terms.values())


class _Powers:
    """The powers of one polynomial that substitute has formed, each by
    ``_power`` from the repeated squares it keeps."""

    def __init__(self, base: Polynomial):
        self.squares = [base]
        self.by_exponent: dict[int, Polynomial] = {}

    def get(self, k: int) -> Polynomial:
        pw = self.by_exponent.get(k)
        if pw is None:
            pw = self.by_exponent[k] = _power(self.squares, k)
        return pw


# Substituted polynomials whose powers _powers keeps, least recently used
# out first. A search substitutes the same controllers, Poisson shifts and
# closed-loop jump maps for one certificate after another. Measured working
# sets: the case-1 repair reuses only entries among its last 4 (78 % of its
# mappings hit, at 4 entries as at 32), the benchmark's cli-session meets 13
# distinct substituted polynomials in 600 requests and mc-repro 10, so all
# of them stay.
POWER_MEMO = 32


@functools.lru_cache(maxsize=POWER_MEMO)
def _powers(key: tuple) -> _Powers:
    """The powers of the polynomial whose ``exact_key`` is ``key``, rebuilt
    from the key's bits. No caller sees the polynomials kept here: substitute
    only multiplies them into new ones."""
    variables, exps, bits = key
    coefs = struct.unpack(f"{len(exps)}d", bits)
    return _Powers(Polynomial._unchecked(variables, dict(zip(exps, coefs))))


def _remap(p: Polynomial, allvars: tuple[str, ...]) -> dict[tuple[int, ...], float]:
    """p's terms with exponents aligned to ``allvars``, a superset of p's
    variables, in p's term order."""
    if p.vars == allvars:
        return p.terms
    pos = [allvars.index(v) for v in p.vars]
    out: dict[tuple[int, ...], float] = {}
    for exp, c in p.terms.items():
        key = [0] * len(allvars)
        for i, e in enumerate(exp):
            key[pos[i]] = e
        out[tuple(key)] = c
    return out


def _sum(polys: Sequence[Polynomial]) -> Polynomial:
    """``Polynomial.constant(0.0) + polys[0] + polys[1] + ...`` bit for bit,
    in one dict: each sum is formed as ``+`` forms it, and a coefficient
    that cancels to exactly 0 is dropped, so a later term puts its key back
    at the end of the term order, as it does after ``+`` dropped it."""
    allvars = tuple(sorted(set().union(*(p.vars for p in polys))))
    out: dict[tuple[int, ...], float] = {}
    for p in polys:
        for exp, c in _remap(p, allvars).items():
            s = out.get(exp, 0.0) + c
            if s == 0.0:
                del out[exp]
            else:
                out[exp] = s
    return Polynomial._unchecked(allvars, out)


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

    def to_dict(self) -> list[float]:
        """The raw moments as a bare list."""
        return list(self.moments)

    @staticmethod
    def from_dict(doc) -> "NoiseMoments":
        return NoiseMoments(decode(tuple[float, ...], doc))

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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"non-finite interval for {v!r}: [{lo}, {hi}]")
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
        return IntervalBox(decode(dict[str, tuple[float, float]], doc))


# ---------------------------------------------------------------------------
# Dense univariate machinery (ascending coefficient lists).
# ---------------------------------------------------------------------------


def _trim(c: Sequence[float], tol: float = SIGN_TOL) -> list[float]:
    scale = max(map(abs, c), default=0.0)
    cut = tol * max(scale, 1.0)
    out = [x if abs(x) > cut else 0.0 for x in c]
    while out and out[-1] == 0.0:
        out.pop()
    return out


def _normalize(c: list[float]) -> list[float]:
    scale = max(map(abs, c), default=0.0)
    return [x / scale for x in c] if scale > 0 else list(c)


def _polyder(c: Sequence[float]) -> list[float]:
    return [k * c[k] for k in range(1, len(c))]


def _divmod_dense(a: list[float], b: list[float]) -> tuple[list[float], list[float]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0.0] * max(len(a) - len(b) + 1, 1)
    db, lead = len(b) - 1, b[-1]
    while len(r) - 1 >= db:
        # stop once _trim(r) would be empty: no entry above its cut
        scale = max(map(abs, r))
        if not scale > SIGN_TOL * max(scale, 1.0):
            break
        dr = len(r) - 1
        f = r[-1] / lead
        q[dr - db] = f
        for i in range(db + 1):
            r[dr - db + i] -= f * b[i]
        r.pop()
        while r and r[-1] == 0.0:
            r.pop()
    return q, _trim(r, SIGN_TOL)


def _sturm_chain(c: list[float]) -> list[list[float]]:
    """The Sturm chain of the square-free part of c, each member in
    descending order, as _sign_variations reads it.

    The chain of p0 (c normalized) is the remainder sequence of p0 and p0'
    with signs flipped in pairs, and _divmod_dense's remainder changes
    only its sign with the signs of its operands, so the last member is
    gcd(p0, p0'). A constant there makes p0 square-free and the chain its
    own; otherwise the chain is that of p0 divided by the gcd.
    """
    p0 = _normalize(_trim(c))
    chain = [p0]
    d = _trim(_polyder(p0))
    if d:
        chain.append(_normalize(d))
    while len(chain[-1]) > 1:
        _, r = _divmod_dense(chain[-2], chain[-1])
        r = _trim([-x for x in r])
        if not r:
            q, _ = _divmod_dense(p0, chain[-1])
            return _sturm_chain(q)
        chain.append(_normalize(r))
    return [c[::-1] for c in chain]


def _sign_variations(chain: list[list[float]], x: float) -> int:
    """Sign changes along the chain at x, skipping values within SIGN_TOL
    of zero; a NaN value counts as negative."""
    count, last = 0, None
    for c in chain:
        v = 0.0
        for coef in c:
            v = v * x + coef
        if abs(v) <= SIGN_TOL:
            continue
        positive = v > 0
        if last is not None and positive is not last:
            count += 1
        last = positive
    return count


def sturm_root_count(p: Polynomial, a: float, b: float) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if a >= b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    c = _trim(p.dense_coeffs())
    if not c:
        raise ValueError("root counting of the zero polynomial is undefined")
    if len(c) == 1:
        return 0
    chain = _sturm_chain(c)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _sign_bisect(rc: list[float], lo: float, hi: float) -> float | None:
    """Bisect [lo, hi] on the sign of the polynomial rc (descending) down
    to ROOT_WIDTH: the midpoint of the last bracket, or a midpoint where rc
    is exactly 0. None where the signs at lo and hi do not differ strictly,
    or where both values are within SIGN_TOL of 0: the Sturm counts take
    such a value for a root at that end, and count the one at hi but not
    the one at lo, which this sign change may bracket instead.
    """
    flo, fhi = 0.0, 0.0
    for coef in rc:
        flo = flo * lo + coef
        fhi = fhi * hi + coef
    # the signs, not the product: a product can underflow to 0
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        return None
    if max(abs(flo), abs(fhi)) <= SIGN_TOL:
        return None
    up = flo < 0.0
    while hi - lo > ROOT_WIDTH:
        mid = 0.5 * (lo + hi)
        v = 0.0
        for coef in rc:
            v = v * mid + coef
        if v == 0.0:
            return mid
        if (v < 0.0) is up:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _isolate_roots(c: list[float], a: float, b: float) -> list[float]:
    """Approximate all distinct real roots of dense poly c in (a, b].

    Sturm counts on the square-free part bisect (a, b] until a bracket
    holds one distinct root. Where the part has strictly opposite signs at
    that bracket's ends, its sign alone bisects further (_sign_bisect);
    otherwise (a root of even multiplicity, an end value within rounding
    of 0) the Sturm counts go on. Both halve at 0.5 * (lo + hi) and stop
    at width ROOT_WIDTH, so a root is the midpoint of its last bracket,
    unless the sign bisection meets an exact 0 at a midpoint.
    """
    chain = _sturm_chain(_trim(c))
    if len(chain[0]) <= 1:
        return []

    def var(x: float) -> int:
        return _sign_variations(chain, x)

    roots: list[float] = []
    stack = [(a, b, var(a), var(b))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n <= 0:
            continue
        if hi - lo <= ROOT_WIDTH:
            roots.append(0.5 * (lo + hi))
            continue
        if n == 1:
            root = _sign_bisect(chain[0], lo, hi)
            if root is not None:
                roots.append(root)
                continue
        mid = 0.5 * (lo + hi)
        vmid = var(mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    return sorted(roots)


def _grid(a: float, b: float) -> list[float]:
    """np.linspace(a, b, 33).tolist() with numpy's arithmetic, bit for bit,
    in plain Python: cheaper than an array for 33 points."""
    step = (b - a) / 32
    if step == 0:  # a subnormal width, which numpy scales after dividing
        return [i / 32 * (b - a) + a for i in range(32)] + [b]
    return [i * step + a for i in range(32)] + [b]


def interval_candidates(dp: Sequence[float], a: float, b: float) -> list[float]:
    """Sorted candidate minimizers on [a < b] of a polynomial with derivative dp.

    dp holds dense ascending coefficients. The candidates are the
    endpoints, every real root of dp inside (a, b) as _isolate_roots
    places it (within a bracket of width ROOT_WIDTH), and a 33-point grid
    as a numerical safety net.
    """
    candidates = {a, b}
    candidates.update(x for x in _isolate_roots(dp, a, b) if a < x < b)
    candidates.update(_grid(a, b))
    return sorted(candidates)


# Candidate sets that _critical_points keeps, least recently used out first.
# A search decides conditions again whose derivative and interval repeat.
# One search meets about 300 distinct sets, so the memo holds only those of
# its latest checks, and a search repeated in one process computes as many
# sets as it did the first time.
CRITICAL_MEMO = 32


@functools.lru_cache(maxsize=CRITICAL_MEMO)
def _critical_points(key: bytes) -> tuple[float, ...]:
    """interval_candidates(dp, a, b) for key = the packed doubles (a, b,
    *dp). A key holds the exact bits, so -0.0 and 0.0 never share an
    entry."""
    a, b, *dp = struct.unpack(f"{len(key) // 8}d", key)
    return tuple(interval_candidates(dp, a, b))


def min_on_interval(p: Polynomial, a: float, b: float) -> tuple[float, float]:
    """Minimum of a univariate polynomial on [a, b] with its argmin.

    p is evaluated at interval_candidates(p', a, b), reused from a small
    memo (_critical_points) while p' and the interval repeat bit for bit,
    and ties are broken toward the smaller argument. A polynomial with a
    non-finite coefficient has no reliable minimum and gives NaN at a;
    with finite coefficients no value is NaN.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"need finite endpoints, got [{a}, {b}]")
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    eff = p.effective_vars()
    if len(eff) > 1:
        raise ValueError(f"polynomial is multivariate in {eff}")
    if not all(map(math.isfinite, p.terms.values())):
        return math.nan, a
    if not eff or a == b:
        v = p.eval({eff[0]: a}) if eff else p.constant_value()
        return v, a
    c = p.dense_coeffs(eff[0])
    # Horner inlined: a call per candidate cost more than its arithmetic
    rc = c[::-1]
    best_x, best_v = None, math.inf
    dp = _polyder(c)
    for x in _critical_points(struct.pack(f"{len(dp) + 2}d", a, b, *dp)):
        v = 0.0
        for coef in rc:
            v = v * x + coef
        if v < best_v:
            best_x, best_v = x, v
    return best_v, best_x


@dataclass(frozen=True)
class NonnegReport(Codec):
    """Outcome of a nonnegativity check over a box.

    status is one of "holds", "fails", "inconclusive". In the univariate
    case margin is the exact interval minimum. In the multivariate case a
    "holds" margin is the Bernstein enclosure's proved lower bound, a
    "fails" margin the negative value at the witness, and an
    "inconclusive" margin the least value evaluated, an upper estimate of
    the minimum. witness points at a negative value when status is
    "fails". A non-finite coefficient makes the status "inconclusive" with
    margin NaN, and so does a Bernstein coefficient that overflows.
    """

    status: str
    margin: float
    witness: dict[str, float] | None = None


def nonneg_on_box(p: Polynomial, box: IntervalBox) -> NonnegReport:
    """Check p >= 0 on the box.

    Univariate polynomials are decided exactly through min_on_interval.
    Multivariate ones get a Bernstein enclosure search (see ``_enclose``)
    and may come back "inconclusive".
    """
    eff = p.effective_vars()
    missing = [v for v in eff if v not in box]
    if missing:
        raise ValueError(f"box does not cover variable(s) {missing}")

    if not all(map(math.isfinite, p.terms.values())):
        return NonnegReport("inconclusive", math.nan, None)

    lows = {v: box[v][0] for v in box}
    if len(eff) == 0:
        c = p.constant_value()
        status = "holds" if c >= 0 else "fails"
        return NonnegReport(status, c, None if c >= 0 else dict(lows))

    if len(eff) == 1:
        var = eff[0]
        lo, hi = box[var]
        value, arg = min_on_interval(p, lo, hi)
        if value >= -1e-9:
            return NonnegReport("holds", value, None)
        witness = dict(lows)
        witness[var] = arg
        return NonnegReport("fails", value, witness)

    status, margin, at = _enclose(p, eff, tuple(box[v] for v in eff))
    witness = None if at is None else {**lows, **dict(zip(eff, at))}
    return NonnegReport(status, margin, witness)


# ---------------------------------------------------------------------------
# Bernstein enclosure (Garloff 1986; Munoz & Narkawicz, J. Autom. Reasoning
# 2013). On a box, p is a combination of tensor Bernstein polynomials, which
# are nonnegative and sum to one, so p is at least its least Bernstein
# coefficient there; halving a box by de Casteljau tightens that bound.
# ---------------------------------------------------------------------------

# Boxes a multivariate check examines before it gives up as "inconclusive".
BOX_BUDGET = 256

# Unit roundoff of double precision, round to nearest.
_U = 2.0**-53


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error of k rounded
    operations (Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    return k * _U / (1.0 - k * _U)


def _bernstein_matrix(d: int, lo: float, hi: float) -> tuple[np.ndarray, int]:
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


def _bernstein(
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
        m, q = _bernstein_matrix(nums.shape[axis] - 1, lo, hi)
        # matmul acts on the second-to-last axis; swapping brings each in turn there
        nums = (m @ nums.swapaxes(axis, -2)).swapaxes(axis, -2)
        den *= q
    coeffs = np.array([_rounded(num, den) for num in nums.flat]).reshape(nums.shape)
    return coeffs, math.ulp(float(np.abs(coeffs).max()))


def _halving_matrix(d: int) -> np.ndarray:
    """de Casteljau at t = 1/2 for degree d: rows 0..d give the Bernstein
    coefficients on the lower half of the interval, rows d+1..2d+1 those on
    the upper half. Entry (i, j) is comb(i, j) / 2**i, exact while comb fits
    53 bits; the upper half is the lower one reversed."""
    lower = np.array([[math.comb(i, j) / 2**i for j in range(d + 1)] for i in range(d + 1)])
    return np.concatenate([lower, lower[::-1, ::-1]])


def _halves(
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


def _lower_bound(coeffs: np.ndarray, err: float) -> float:
    """Least coefficient less the error bound, rounded down: a proved lower
    bound of the polynomial on the coefficients' box."""
    return math.nextafter(float(coeffs.min()) - err, -math.inf)


def _enclose(
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
    coeffs, err = _bernstein(p, eff, bounds)
    if not (np.isfinite(coeffs).all() and math.isfinite(err)):
        return "inconclusive", math.nan, None
    halving = {n: _halving_matrix(n - 1) for n in coeffs.shape}
    order = itertools.count()
    heap = [(_lower_bound(coeffs, err), next(order), bounds, coeffs, err)]
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
        lower, upper, err = _halves(coeffs, err, axis, halving[coeffs.shape[axis]])
        for half, piece in (((lo, mid), lower), ((mid, hi), upper)):
            sub = box[:axis] + (half,) + box[axis + 1 :]
            heapq.heappush(heap, (_lower_bound(piece, err), next(order), sub, piece, err))
    return "inconclusive", (least if at is not None else math.nan), None
