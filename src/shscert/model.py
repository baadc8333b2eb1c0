"""Data model for controlled jump-diffusion systems with scheduled jumps.

A system couples a continuous flow (polynomial drift, diffusion driven by
Brownian motion, resets driven by Poisson counters) with an instantaneous
stochastic jump map applied at scheduled instants. Jump instants are
constrained to gaps of q1..q2 sampling periods; the augmented view adds a
counter z tracking periods since the last jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .codec import Codec, decode
from .poly import IntervalBox, NoiseMoments, Polynomial, bind_names, generated

if TYPE_CHECKING:  # numpy is imported only where the block flow kernel uses it
    import numpy as np


FLOW = "flow"
JUMP = "jump"


@dataclass(frozen=True)
class JumpParams(Codec):
    """Sampling period and admissible range of inter-jump gaps (in periods)."""

    tau: float
    q1: int
    q2: int

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.q1 < 1 or self.q2 < 1 or self.q1 > self.q2:
            raise ValueError(f"need 1 <= q1 <= q2, got q1={self.q1}, q2={self.q2}")

    def admits(self, scenario: str, z: int) -> bool:
        """Whether a transition scenario is admissible at counter z.

        Flow is admissible for 0 <= z <= q2-1 (the counter increments);
        jump is admissible for q1 <= z <= q2 (the counter resets). Both can
        be admissible at once; a JumpSchedule resolves the nondeterminism
        in simulation.
        """
        if scenario == FLOW:
            return 0 <= z <= self.q2 - 1
        if scenario == JUMP:
            return self.q1 <= z <= self.q2
        raise ValueError(f"unknown scenario {scenario!r}")


# The jump-noise samplers the simulator knows: i.i.d. standard normals.
SAMPLERS = ("gaussian",)


@dataclass(frozen=True)
class NoiseConfig(Codec):
    """Moment data plus a sampler tag (one of ``SAMPLERS``) for the jump
    noise components."""

    moments: tuple[NoiseMoments, ...]
    sampler: str = "gaussian"


class BlowUpError(RuntimeError):
    """Raised when the integrated state stops being finite."""

    def __init__(self, step: int, message: str | None = None):
        super().__init__(message or f"state became non-finite at substep {step}")
        self.step = step


@dataclass(frozen=True)
class SHSModel(Codec):
    """Polynomial jump-diffusion model with box-shaped state sets.

    f1[i] lives in (state, input) variables, sigma/rho entries in state
    variables only, f2[i] in (state, input, noise). X0 and Xu are the
    initial and unsafe boxes inside the working box X. A model that breaks
    one of these invariants cannot be built: the constructor raises one
    ``ValueError`` listing every violation, joined by "; ".
    """

    derived_keys = ("n", "m")

    state_vars: tuple[str, ...]
    input_vars: tuple[str, ...]
    noise_vars: tuple[str, ...]
    f1: tuple[Polynomial, ...]
    sigma: tuple[tuple[Polynomial, ...], ...]
    rho: tuple[tuple[Polynomial, ...], ...]
    rates: tuple[float, ...] = field(metadata={"key": "lambda"})
    f2: tuple[Polynomial, ...]
    noise: NoiseConfig
    jump: JumpParams
    X: IntervalBox
    X0: IntervalBox
    Xu: IntervalBox

    def __post_init__(self):
        bad: list[str] = []
        n = self.n
        names = self.state_vars + self.input_vars + self.noise_vars
        repeated = sorted({v for v in names if names.count(v) > 1})
        if repeated:
            bad.append(f"variable name(s) {repeated} declared more than once")
        for j, lam in enumerate(self.rates):
            if not 0 <= lam < math.inf:
                bad.append(f"lambda[{j}] must be finite and >= 0, got {lam}")
        if not self.X0.subset_of(self.X):
            bad.append("X0 subset of X violated")
        if not self.Xu.subset_of(self.X):
            bad.append("Xu subset of X violated")
        for name, box in (("X", self.X), ("X0", self.X0), ("Xu", self.Xu)):
            missing = [v for v in self.state_vars if v not in box]
            if missing:
                bad.append(f"{name} missing interval(s) for {missing}")
            extra = [v for v in box if v not in self.state_vars]
            if extra:
                bad.append(f"{name} has interval(s) for non-state variable(s) {extra}")
        if len(self.f1) != n:
            bad.append(f"f1 has {len(self.f1)} rows, expected n={n}")
        if len(self.f2) != n:
            bad.append(f"f2 has {len(self.f2)} rows, expected n={n}")
        if len(self.sigma) != n:
            bad.append(f"sigma has {len(self.sigma)} rows, expected n={n}")
        elif len({len(row) for row in self.sigma} | {self.brownian_dim}) > 1:
            bad.append("sigma rows have inconsistent widths")
        if len(self.rho) != n:
            bad.append(f"rho has {len(self.rho)} rows, expected n={n}")
        else:
            widths = {len(row) for row in self.rho}
            if len(widths) > 1 or (widths and widths != {self.poisson_dim}):
                bad.append("rho width does not match number of Poisson rates")
        if len(self.noise.moments) != len(self.noise_vars):
            bad.append("noise moment lists do not match noise variables")
        if self.noise.sampler not in SAMPLERS:
            bad.append(f"unknown noise sampler {self.noise.sampler!r}")
        elif self.noise.sampler == "gaussian":
            # the simulator draws standard normals; the checker must assume them too
            for k, m in enumerate(self.noise.moments):
                if m != NoiseMoments.standard_normal(len(m.moments) - 1):
                    bad.append(f"noise moments[{k}] differ from the gaussian sampler's N(0,1)")

        state = set(self.state_vars)
        flow_vars = state | set(self.input_vars)
        jump_vars = flow_vars | set(self.noise_vars)
        rows = [(f"f1[{i}]", p, flow_vars) for i, p in enumerate(self.f1)]
        for label, matrix in (("sigma", self.sigma), ("rho", self.rho)):
            rows += [
                (f"{label}[{i}][{j}]", p, state)
                for i, row in enumerate(matrix)
                for j, p in enumerate(row)
            ]
        rows += [(f"f2[{i}]", p, jump_vars) for i, p in enumerate(self.f2)]
        for label, p, allowed in rows:
            extra = set(p.effective_vars()) - allowed
            if extra:
                bad.append(f"{label} uses undeclared variable(s) {sorted(extra)}")
        if bad:
            raise ValueError("; ".join(bad))

    @property
    def n(self) -> int:
        return len(self.state_vars)

    @property
    def m(self) -> int:
        return len(self.input_vars)

    @property
    def brownian_dim(self) -> int:
        return len(self.sigma[0]) if self.sigma else 0

    @property
    def poisson_dim(self) -> int:
        return len(self.rates)

    @cached_property
    def scalar_flow(self):
        """One Euler-Maruyama period of one trajectory on Python floats, as
        straight-line code generated on first use (see ``poly.generated``):
        ``scalar_flow(x, u, h, sqh, dW, dP, substeps)`` runs from state
        ``x`` under the held input ``u`` with step ``h`` and its square root
        ``sqh``, taking substep s's Brownian increments from ``dW[s]`` and
        Poisson counts from ``dP[s]`` (``None`` when the model has none),
        and returns the state as a tuple. It raises ``BlowUpError(s)`` at
        the first substep s whose state is not finite."""
        return _flow_kernel(self)

    @cached_property
    def block_flow(self):
        """``scalar_flow`` for a block of rows held as columns (see
        ``_flow_kernel``)."""
        return _flow_kernel(self, block=True)

    @cached_property
    def jump_map(self):
        """The jump map f2 as ``jump_map(x, u, w)`` under the noise sample
        ``w``; takes sequences of floats (or columns) and returns a tuple."""
        return _jump_kernel(self)


def _unpack(names: list[str], seq: str, depth: int = 1) -> str:
    """``a, b, = seq`` at the given indent, or an empty line for no names."""
    return "    " * depth + _names(names) + f"= {seq}" if names else ""


def _flow_kernel(model: SHSModel, block: bool = False):
    """One flow period as straight-line code, in the order of operations of
    Euler-Maruyama term by term: y_i = x_i + h f1_i + sigma_i0 sqh dW_0 +
    ..., then y_i += rho_ij dP_j for each nonzero count dP_j in turn. Every
    product free of the state is formed once per period, which is the
    product every substep would form: a drift term's leading product of its
    coefficient and its input factors (``0.5*u0``, see
    ``Polynomial.source``), a state-free sigma entry times sqh, and a
    state-free rho entry.

    With ``block`` the same expressions run a period of many rows at once
    (``SHSModel.block_flow``, see ``_block_source``): the state and input
    are columns (an input may also be a float), ``dW`` and ``dP`` are
    (substeps, b, N) and (substeps, r, N) arrays, and the kernel returns new
    columns at the end of the period."""
    n, b, r = model.n, model.brownian_dim, model.poisson_dim
    xs = [f"x{i}" for i in range(n)]
    us = [f"u{j}" for j in range(model.m)]
    names = bind_names(model.state_vars + model.input_vars, xs + us)
    state = {v: names[v] for v in model.state_vars}
    consts: dict[str, float] = {}
    hoisted: dict[str, str] = {}
    # the state-free products, by the name the kernels read them under
    sigmas: dict[str, tuple[int, str]] = {}  # k<i>_<j>: (j, sigma_ij * sqh)
    rhos: dict[str, str] = {}  # r<i>_<j>: rho_ij
    dws = [f"dW[s, {j}]" if block else f"dw{j}" for j in range(b)]
    updates = []  # per coordinate, the text of y_i
    for i in range(n):
        drift = model.f1[i].source(names, consts, model.input_vars, hoisted)
        line = f"x{i} + h * ({drift})"
        for j, sig in enumerate(model.sigma[i]):
            if sig.effective_vars():
                line += f" + ({sig.source(state, consts)}) * sqh * {dws[j]}"
            else:
                sigmas[f"k{i}_{j}"] = j, f"({sig.source({}, consts)}) * sqh"
                line += f" + k{i}_{j}[s]" if block else f" + k{i}_{j} * dw{j}"
        updates.append(line)
    counts = []  # per channel j, per coordinate i, the text of rho_ij dP_j
    for j in range(r):
        terms = []
        for i in range(n):
            rho = model.rho[i][j]
            if rho.effective_vars():
                terms.append(f"({rho.source(state, consts)}) * dp{j}")
            else:
                rhos[f"r{i}_{j}"] = f"({rho.source({}, consts)})"
                terms.append(f"r{i}_{j} * dp{j}")
        counts.append(terms)
    if block:
        import numpy as np

        source = _block_source(xs, us, updates, counts, sigmas, rhos, hoisted)
        namespace = dict(
            consts, range=range, empty=np.empty, full=np.full, add=np.add, multiply=np.multiply,
            not_equal=np.not_equal, counted=_counted, pool={},
        )
        return generated(source, namespace, "flow")
    head = ["def flow(x, u, h, sqh, dW, dP, substeps):", _unpack(xs, "x"), _unpack(us, "u")]
    head += [f"    {name} = {text}" for name, (_, text) in sigmas.items()]
    head += [f"    {name} = {text}" for text, name in hoisted.items()]
    head += [f"    {name} = {text}" for name, text in rhos.items()]
    body = ["    for s in range(substeps):", _unpack(dws, "dW[s]", 2), _unpack([f"dp{j}" for j in range(r)], "dP[s]", 2)]
    body += [f"        y{i} = {line}" for i, line in enumerate(updates)]
    for j, terms in enumerate(counts):
        body.append(f"        if dp{j}:")
        body += [f"            y{i} = y{i} + {term}" for i, term in enumerate(terms)]
    body += [
        f"        {_names(xs)}= {_names(f'y{i}' for i in range(n))}",
        f"        if not ({' and '.join(f'isfinite({x})' for x in xs)}):",
        "            raise BlowUpError(s)",
        f"    return ({_names(xs)})",
    ]
    namespace = dict(consts, range=range, isfinite=math.isfinite, BlowUpError=BlowUpError)
    return generated("\n".join(head + body) + "\n", namespace, "flow")


def _block_source(
    xs: list[str],
    us: list[str],
    updates: list[str],
    counts: list[list[str]],
    sigmas: dict[str, tuple[int, str]],
    rhos: dict[str, str],
    hoisted: dict[str, str],
) -> str:
    """The block flow kernel's source: the scalar kernel's expressions,
    parsed and lowered by ``_Lowering`` to one ufunc call per operation,
    each writing through its positional ``out`` into a preallocated column.

    Each operand of a substep is a column of N rows: the state, a slice of
    the noise, or a buffer holding a value the scalar kernel reads as a
    float, broadcast once: a literal, h, sqh, a state-free rho entry or
    ``_k`` constant per (N, h), and an input or a hoisted input product per
    call (an input may be a float or a column). A state-free sigma entry's
    products with all the period's increments are formed once per call, the
    same products the scalar kernel forms one substep at a time. Count j
    updates ``add(y_i, rho_ij * dp_j, y_i, where=dp_j != 0)``, and only on
    substeps where some row counted.

    The buffers, ``empty`` and ``full`` columns and (substeps, N) arrays, are
    made on the first call with a given (N, h, sqh, substeps) and kept in
    ``pool`` between calls with that key; a call takes its set out of the
    pool while it runs, so calls never share one. Each substep writes the
    new state into one of two buffers per coordinate, never into the
    caller's columns, and the kernel returns copies of the last ones. No
    substep tests finiteness: every update has the form ``x_i + ...``, so a
    non-finite coordinate stays non-finite, and the caller checks the state
    once at the end of the period."""
    low = _Lowering({*xs, *(f"dp{j}" for j in range(len(counts)))})
    loop = ["    for s in range(substeps):"]
    for i, update in enumerate(updates):
        lines, _ = low.lower(update, f"y{i}")
        loop += [f"        {line}" for line in lines]
    for j, terms in enumerate(counts):
        loop += [f"        if c{j}[s]:", f"            dp{j} = dP[s, {j}]"]
        for i, term in enumerate(terms):
            lines, t = low.lower(term)
            loop += [f"            {line}" for line in lines + [f"add(y{i}, {t}, y{i}, where=on[s, {j}])"]]
            low.release(t)
    # the state now in y, and the other buffer up for the next substep
    ys, ws = [f"y{i}" for i in range(len(xs))], [f"w{i}" for i in range(len(xs))]
    loop.append(f"        {_names(xs + ys + ws)}= {_names(ys + ws + ys)}")

    per_call = {u: u for u in us} | {name: text for text, name in hoisted.items()}
    bufs = {t: "empty(N)" for t in low.temps} | {y: "empty(N)" for y in ys + ws}
    bufs |= {col: f"full(N, {text})" for text, col in low.literals.items()}
    fills = []
    for name, col in low.broadcast.items():
        if name in per_call:
            bufs[col] = "empty(N)"
            fills.append(f"    {col}[:] = {per_call[name]}")
        else:
            bufs[col] = f"full(N, {rhos.get(name, name)})"
    for name, (j, text) in sigmas.items():
        bufs |= {name: "empty((substeps, N))", f"{name}c": text}
        fills.append(f"    multiply({name}c, dW[:, {j}], {name})")
    if counts:
        bufs["on"] = f"empty((substeps, {len(counts)}, N), 'bool')"
        fills.append("    not_equal(dP, 0, on)")
        fills += [f"    c{j} = counted(on, {j})" for j in range(len(counts))]
    head = [
        "def flow(x, u, h, sqh, dW, dP, substeps):",
        "    key = dW.shape[2], h, sqh, substeps",
        "    bufs = pool.pop(key, None)",
        "    if bufs is None:",
        "        N = key[0]",
        f"        bufs = {_names(bufs.values())}",
        f"    {_names(bufs)}= bufs",
        _unpack(xs, "x"),
        _unpack(us, "u"),
    ]
    tail = ["    pool.clear()", "    pool[key] = bufs", f"    return ({_names(f'{x}.copy()' for x in xs)})"]
    return "\n".join(head + fills + loop + tail) + "\n"


def _names(items) -> str:
    """``a, b, `` from the items: a tuple's text, of any length."""
    return "".join(f"{v}, " for v in items)


# the ufunc of each operator that ``Polynomial.source`` writes
_UFUNCS = {"Add": "add", "Mult": "multiply"}


class _Lowering:
    """Three-address code for expressions over columns: each binary
    operation becomes one ufunc call writing into a temporary column
    (``t<k>``), or into the given destination for the outermost one, in the
    order Python evaluates the expression, so the operations and their
    order, and with them every bit, stay those of the expression. Names in
    ``columns`` are columns already; any other name (h, an input, ``p<i>``,
    ``r<i>_<j>``, ``_k<i>``) reads a broadcast column ``b_<name>``, and a
    literal a column ``l<k>``. A subscript (a slice of the noise) is an
    operand as written. ``_chain``'s split form ``(acc := ..., acc := acc
    ..., ...)[-1]`` binds each piece to its accumulator in turn."""

    def __init__(self, columns: set[str]):
        self.columns = columns
        self.temps: list[str] = []
        self.free: list[str] = []
        self.literals: dict[str, str] = {}
        self.broadcast: dict[str, str] = {}
        self.bound: dict[str, str] = {}  # each _chain accumulator's column
        self.lines: list[str] = []

    def lower(self, text: str, dest: str | None = None) -> tuple[list[str], str]:
        """The lines computing ``text`` and the column its value lands in:
        ``dest`` when given, else a temporary that stays taken until
        ``release``."""
        import ast

        self.lines = []
        return self.lines, self._value(ast.parse(text, mode="eval").body, dest)

    def release(self, name: str) -> None:
        """Free ``name`` for reuse when it is a temporary."""
        if name in self.temps:
            self.free.append(name)

    def _value(self, node, dest: str | None = None) -> str:
        import ast

        if isinstance(node, ast.BinOp):
            a, b = self._value(node.left), self._value(node.right)
            self.release(a)
            self.release(b)
            out = dest or self._temp()
            self.lines.append(f"{_UFUNCS[type(node.op).__name__]}({a}, {b}, {out})")
            return out
        if isinstance(node, ast.Constant):
            return self._literal(node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and isinstance(node.operand, ast.Constant):
            return self._literal(-node.operand.value)
        if isinstance(node, ast.Name):
            if node.id in self.bound:
                return self.bound.pop(node.id)
            if node.id in self.columns:
                return node.id
            return self.broadcast.setdefault(node.id, f"b_{node.id}")
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Tuple):  # _chain's pieces
            for piece in node.value.elts:
                self.bound[piece.target.id] = self._value(piece.value)
            return self.bound.pop(node.value.elts[-1].target.id)
        if isinstance(node, ast.Subscript):
            return ast.unparse(node)
        raise ValueError(f"cannot lower {ast.unparse(node)!r}")

    def _literal(self, value: float) -> str:
        return self.literals.setdefault(repr(value), f"l{len(self.literals)}")

    def _temp(self) -> str:
        if self.free:
            return self.free.pop()
        self.temps.append(f"t{len(self.temps)}")
        return self.temps[-1]


def _counted(on: np.ndarray, j: int) -> list[bool]:
    """Per substep, whether any row's count j is nonzero, from the mask
    ``on`` of nonzero counts. Called here rather than in the generated code:
    numpy may import a module on a method's first call, which code without
    builtins cannot."""
    return on[:, j].any(1).tolist()


def _jump_kernel(model: SHSModel):
    """The jump map f2(x, u, w) as straight-line code."""
    xs = [f"x{i}" for i in range(model.n)]
    us = [f"u{j}" for j in range(model.m)]
    ws = [f"w{k}" for k in range(len(model.noise_vars))]
    names = bind_names(model.state_vars + model.input_vars + model.noise_vars, xs + us + ws)
    consts: dict[str, float] = {}
    src = ["def jump(x, u, w):", _unpack(xs, "x"), _unpack(us, "u"), _unpack(ws, "w")]
    src.append(f"    return ({''.join(f'{p.source(names, consts)}, ' for p in model.f2)})")
    return generated("\n".join(src) + "\n", consts, "jump")


@dataclass(frozen=True)
class JumpSchedule:
    """Resolution of when jumps fire: fixed gap, cyclic gaps, or uniform.

    Gaps count flow transitions between consecutive jumps and must stay in
    {q1, ..., q2} for the model the schedule is used with.
    """

    policy: str
    gaps: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.policy not in ("fixed", "cyclic", "uniform"):
            raise ValueError(f"unknown schedule policy {self.policy!r}")
        if self.policy == "fixed" and len(self.gaps) != 1:
            raise ValueError("fixed schedule needs exactly one gap")
        if self.policy == "cyclic" and not self.gaps:
            raise ValueError("cyclic schedule needs at least one gap")
        if self.policy == "uniform" and self.gaps:
            raise ValueError("uniform schedule takes no explicit gaps")

    @staticmethod
    def uniform() -> "JumpSchedule":
        return JumpSchedule("uniform")

    @staticmethod
    def parse(text: str) -> "JumpSchedule":
        """Parse 'fixed:d', 'cyclic:d1,d2,...' or 'uniform', exactly as
        ``describe`` writes it."""
        head, _, tail = decode(str, text).partition(":")
        try:
            schedule = JumpSchedule(head, tuple(map(int, tail.split(","))) if tail else ())
            if schedule.describe() == text:
                return schedule
        except ValueError:
            pass
        raise ValueError(f"cannot parse schedule {text!r}")

    def describe(self) -> str:
        if self.policy == "uniform":
            return "uniform"
        return f"{self.policy}:{','.join(str(d) for d in self.gaps)}"

    # the codec form is the text that parse reads
    to_dict, from_dict = describe, parse

    def validate_for(self, jump: JumpParams) -> None:
        for d in self.gaps:
            if not jump.admits(JUMP, d):
                raise ValueError(
                    f"schedule gap {d} outside admissible range "
                    f"[{jump.q1}, {jump.q2}]"
                )

    def draw_gaps(self, jump: JumpParams, first: int, count: int, rng: np.random.Generator) -> list[int]:
        """Gaps before jumps ``first`` .. ``first + count - 1`` (the first
        jump is jump 0); a uniform schedule draws all of them from rng in
        one call."""
        if self.policy == "uniform":
            return rng.integers(jump.q1, jump.q2 + 1, count).tolist()
        return [self.gaps[i % len(self.gaps)] for i in range(first, first + count)]
