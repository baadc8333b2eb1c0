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
from typing import NamedTuple, Sequence

import numpy as np

from .codec import Codec
from .poly import IntervalBox, NoiseMoments, Polynomial, bind_names, generated


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


class CompiledDynamics(NamedTuple):
    """The model's flow and jump as generated straight-line code (see
    ``poly.generated``), for one trajectory on Python floats.

    ``flow(x, u, h, sqh, dW, dP, substeps)`` runs one Euler-Maruyama period
    from state ``x`` under the held input ``u`` with step ``h`` and its
    square root ``sqh``, taking substep s's Brownian increments from
    ``dW[s]`` and Poisson counts from ``dP[s]`` (``None`` when the model has
    none). It raises ``BlowUpError(s)`` at the first substep s whose state
    is not finite. ``jump(x, u, w)`` is the jump map f2 under the noise
    sample ``w``. Both take sequences of floats and return tuples.
    """

    flow: object
    jump: object


@dataclass(frozen=True)
class SHSModel(Codec):
    """Polynomial jump-diffusion model with box-shaped state sets.

    f1[i] lives in (state, input) variables, sigma/rho entries in state
    variables only, f2[i] in (state, input, noise). X0 and Xu are the
    initial and unsafe boxes inside the working box X.
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
    def dynamics(self) -> CompiledDynamics:
        """The model's kernels, generated once, for the simulator."""
        return CompiledDynamics(flow=_flow_kernel(self), jump=_jump_kernel(self))

    @cached_property
    def block_flow(self):
        """``dynamics.flow`` for a block of rows held as columns, generated on
        first use so that single trajectories never pay for it (see
        ``_flow_kernel``)."""
        return _flow_kernel(self, block=True)


def _unpack(names: list[str], seq: str, depth: int = 1) -> str:
    """``a, b, = seq`` at the given indent, or an empty line for no names."""
    return "    " * depth + "".join(f"{v}, " for v in names) + f"= {seq}" if names else ""


def _flow_kernel(model: SHSModel, block: bool = False):
    """One flow period as straight-line code, in the order of operations of
    Euler-Maruyama term by term: y_i = x_i + h f1_i + sigma_i0 sqh dW_0 +
    ..., then y_i += rho_ij dP_j for each nonzero count dP_j in turn. A
    sigma entry free of the state is multiplied by sqh once per period,
    which is the product every substep would form.

    With ``block`` the same expressions run a period of many rows at once
    (``SHSModel.block_flow``): the state and input are columns, ``dW`` and
    ``dP`` are (substeps, b, N) and (substeps, r, N) arrays, and the kernel
    returns the columns at the end of the period. A state-free sigma entry's
    products with all the period's increments are formed up front, the same
    products the scalar kernel forms one substep at a time. Count j updates
    ``where(dP_j != 0, y_i + rho_ij dP_j, y_i)``, and only on substeps where
    some row counted. No substep tests finiteness: every update has the form
    ``x_i + ...``, so a non-finite coordinate stays non-finite, and the caller
    checks the state once at the end of the period."""
    n, b, r = model.n, model.brownian_dim, model.poisson_dim
    xs = [f"x{i}" for i in range(n)]
    us = [f"u{j}" for j in range(model.m)]
    names = bind_names(model.state_vars + model.input_vars, xs + us)
    state = {v: names[v] for v in model.state_vars}
    consts: dict[str, float] = {}
    head = ["def flow(x, u, h, sqh, dW, dP, substeps):", _unpack(xs, "x"), _unpack(us, "u")]
    body = ["    for s in range(substeps):"]
    if block:
        dws = [f"dW[s, {j}]" for j in range(b)]
        head += [f"    c{j} = counted(dP, {j})" for j in range(r)]
    else:
        dws = [f"dw{j}" for j in range(b)]
        body += [_unpack(dws, "dW[s]", 2), _unpack([f"dp{j}" for j in range(r)], "dP[s]", 2)]
    for i in range(n):
        line = f"        y{i} = x{i} + h * ({model.f1[i].source(names, consts)})"
        for j, sig in enumerate(model.sigma[i]):
            if sig.effective_vars():
                line += f" + ({sig.source(state, consts)}) * sqh * {dws[j]}"
            elif block:
                head.append(f"    k{i}_{j} = ({sig.source({}, consts)}) * sqh * dW[:, {j}]")
                line += f" + k{i}_{j}[s]"
            else:
                head.append(f"    k{i}_{j} = ({sig.source({}, consts)}) * sqh")
                line += f" + k{i}_{j} * dw{j}"
        body.append(line)
    for j in range(r):
        rhos = [model.rho[i][j].source(state, consts) for i in range(n)]
        if block:
            body += [f"        if c{j}[s]:", f"            dp{j} = dP[s, {j}]", f"            on{j} = dp{j} != 0"]
            body += [
                f"            y{i} = where(on{j}, y{i} + ({rho}) * dp{j}, y{i})"
                for i, rho in enumerate(rhos)
            ]
        else:
            body.append(f"        if dp{j}:")
            body += [f"            y{i} = y{i} + ({rho}) * dp{j}" for i, rho in enumerate(rhos)]
    body.append(f"        {''.join(f'{x}, ' for x in xs)}= {''.join(f'y{i}, ' for i in range(n))}")
    if not block:
        body += [
            f"        if not ({' and '.join(f'isfinite({x})' for x in xs)}):",
            "            raise BlowUpError(s)",
        ]
    body.append(f"    return ({''.join(f'{x}, ' for x in xs)})")
    namespace = dict(
        consts, range=range, isfinite=math.isfinite, BlowUpError=BlowUpError,
        where=np.where, counted=_counted,
    )
    return generated("\n".join(head + body) + "\n", namespace, "flow")


def _counted(dP: np.ndarray, j: int) -> list[bool]:
    """Per substep, whether any row's count j is nonzero. Called here rather
    than in the generated code: numpy may import a module on a method's
    first call, which code without builtins cannot."""
    return dP[:, j].any(1).tolist()


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


def validate(model: SHSModel) -> list[str]:
    """Invariant audit; returns one message per violation (empty = valid)."""
    bad: list[str] = []
    n = model.n
    for j, lam in enumerate(model.rates):
        if not 0 <= lam < math.inf:
            bad.append(f"lambda[{j}] must be finite and >= 0, got {lam}")
    if not model.X0.subset_of(model.X):
        bad.append("X0 subset of X violated")
    if not model.Xu.subset_of(model.X):
        bad.append("Xu subset of X violated")
    for name, box in (("X", model.X), ("X0", model.X0), ("Xu", model.Xu)):
        missing = [v for v in model.state_vars if v not in box]
        if missing:
            bad.append(f"{name} missing interval(s) for {missing}")
    if len(model.f1) != n:
        bad.append(f"f1 has {len(model.f1)} rows, expected n={n}")
    if len(model.f2) != n:
        bad.append(f"f2 has {len(model.f2)} rows, expected n={n}")
    if len(model.sigma) != n:
        bad.append(f"sigma has {len(model.sigma)} rows, expected n={n}")
    elif len({len(row) for row in model.sigma} | {model.brownian_dim}) > 1:
        bad.append("sigma rows have inconsistent widths")
    if len(model.rho) != n:
        bad.append(f"rho has {len(model.rho)} rows, expected n={n}")
    else:
        widths = {len(row) for row in model.rho}
        if len(widths) > 1 or (widths and widths != {model.poisson_dim}):
            bad.append("rho width does not match number of Poisson rates")
    if len(model.noise.moments) != len(model.noise_vars):
        bad.append("noise moment lists do not match noise variables")
    if model.noise.sampler not in SAMPLERS:
        bad.append(f"unknown noise sampler {model.noise.sampler!r}")
    elif model.noise.sampler == "gaussian":
        # the simulator draws standard normals; the checker must assume them too
        for k, m in enumerate(model.noise.moments):
            if m != NoiseMoments.standard_normal(len(m.moments) - 1):
                bad.append(f"noise moments[{k}] differ from the gaussian sampler's N(0,1)")

    flow_vars = set(model.state_vars) | set(model.input_vars)
    jump_vars = flow_vars | set(model.noise_vars)
    state = set(model.state_vars)
    for i, p in enumerate(model.f1):
        extra = set(p.effective_vars()) - flow_vars
        if extra:
            bad.append(f"f1[{i}] uses undeclared variable(s) {sorted(extra)}")
    for i, row in enumerate(model.sigma):
        for j, p in enumerate(row):
            extra = set(p.effective_vars()) - state
            if extra:
                bad.append(f"sigma[{i}][{j}] uses undeclared variable(s) {sorted(extra)}")
    for i, row in enumerate(model.rho):
        for j, p in enumerate(row):
            extra = set(p.effective_vars()) - state
            if extra:
                bad.append(f"rho[{i}][{j}] uses undeclared variable(s) {sorted(extra)}")
    for i, p in enumerate(model.f2):
        extra = set(p.effective_vars()) - jump_vars
        if extra:
            bad.append(f"f2[{i}] uses undeclared variable(s) {sorted(extra)}")
    return bad


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
    def fixed(d: int) -> "JumpSchedule":
        return JumpSchedule("fixed", (int(d),))

    @staticmethod
    def cyclic(ds: Sequence[int]) -> "JumpSchedule":
        return JumpSchedule("cyclic", tuple(int(d) for d in ds))

    @staticmethod
    def uniform() -> "JumpSchedule":
        return JumpSchedule("uniform")

    @staticmethod
    def parse(text: str) -> "JumpSchedule":
        """Parse 'fixed:d', 'cyclic:d1,d2,...' or 'uniform'."""
        head, _, tail = text.partition(":")
        if head == "fixed":
            return JumpSchedule.fixed(int(tail))
        if head == "cyclic":
            return JumpSchedule.cyclic([int(d) for d in tail.split(",") if d])
        if head == "uniform":
            return JumpSchedule.uniform()
        raise ValueError(f"cannot parse schedule {text!r}")

    def describe(self) -> str:
        if self.policy == "uniform":
            return "uniform"
        return f"{self.policy}:{','.join(str(d) for d in self.gaps)}"

    def validate_for(self, jump: JumpParams) -> None:
        for d in self.gaps:
            if not jump.admits(JUMP, d):
                raise ValueError(
                    f"schedule gap {d} outside admissible range "
                    f"[{jump.q1}, {jump.q2}]"
                )

    def next_gap(self, jump: JumpParams, index: int, rng: np.random.Generator) -> int:
        """Gap before the (index+1)-th jump; uniform draws use rng."""
        if self.policy == "uniform":
            return int(rng.integers(jump.q1, jump.q2 + 1))
        return self.gaps[index % len(self.gaps)]
