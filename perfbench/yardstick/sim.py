"""Seeded Monte Carlo simulation of the controlled jump-diffusion system.

The flow is integrated with Euler-Maruyama (Brownian increments plus exact
per-substep Poisson counts); jumps apply the stochastic jump map
instantaneously at scheduled instants. Each trajectory owns a
counter-based RNG stream derived from the master seed and its index, so
results are reproducible and independent of execution order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import stats

from .augment import Acbc
from .certify import CbcCandidate
from .model import FLOW, JUMP, JumpSchedule, SHSModel
from .poly import Polynomial


class BlowUpError(RuntimeError):
    """Raised when the integrated state stops being finite."""

    def __init__(self, step: int, message: str | None = None):
        super().__init__(message or f"state became non-finite at substep {step}")
        self.step = step


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one batch of trajectories."""

    horizon_T: int
    n_trajectories: int = 1
    substeps_per_tau: int = 20
    master_seed: int = 0
    schedule: JumpSchedule = field(default_factory=JumpSchedule.uniform)
    x0: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.substeps_per_tau < 1:
            raise ValueError("substeps_per_tau must be >= 1")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if self.horizon_T < 0:
            raise ValueError("horizon_T must be >= 0")


@dataclass(frozen=True)
class TransitionRecord:
    k: int
    time: float
    z: int
    scenario: str
    x: tuple[float, ...]
    b_value: float | None = None


@dataclass(frozen=True)
class Trajectory:
    records: tuple[TransitionRecord, ...]
    seed: int
    traj_index: int
    first_unsafe: int | None
    first_exceed: int | None


def trajectory_rng(master_seed: int, traj_index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory; stable across workers."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(traj_index,))
    return np.random.Generator(np.random.Philox(ss))


def _controllers(controllers) -> tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]:
    if isinstance(controllers, CbcCandidate):
        return controllers.nu_flow, controllers.nu_jump
    flow, jump = controllers
    return tuple(flow), tuple(jump)


def flow_step(
    model: SHSModel,
    x: Sequence[float],
    nu_value: Sequence[float],
    tau: float,
    substeps: int,
    rng: np.random.Generator,
) -> tuple[float, ...]:
    """One sampling period of Euler-Maruyama flow under a held input.

    x <- x + f1(x, nu) h + sigma(x) sqrt(h) N(0, I) + rho(x) dP with
    h = tau / substeps and dP exact Poisson counts of mean rate*h.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    n, b, r = model.n, model.brownian_dim, model.poisson_dim
    h = tau / substeps
    sqh = math.sqrt(h)
    sv, iv = model.state_vars, model.input_vars
    f1 = [p.compiled(sv + iv) for p in model.f1]
    sig = [[p.compiled(sv) for p in row] for row in model.sigma]
    rho = [[p.compiled(sv) for p in row] for row in model.rho]

    dW = rng.normal(0.0, 1.0, size=(substeps, b)) if b else None
    dP = (
        rng.poisson(np.asarray(model.rates) * h, size=(substeps, r)).astype(float)
        if r
        else None
    )
    state = [float(v) for v in x]
    nu = tuple(float(v) for v in nu_value)
    for s in range(substeps):
        vals = tuple(state) + nu
        new = []
        try:
            for i in range(n):
                xi = state[i] + h * f1[i](vals)
                if b:
                    row = sig[i]
                    for j in range(b):
                        xi += row[j](state) * sqh * dW[s, j]
                if r:
                    row = rho[i]
                    for j in range(r):
                        c = dP[s, j]
                        if c:
                            xi += row[j](state) * c
                new.append(float(xi))
        except OverflowError:
            raise BlowUpError(s) from None
        state = new
        for v in state:
            if not math.isfinite(v):
                raise BlowUpError(s)
    return tuple(state)


def jump_step(
    model: SHSModel,
    x: Sequence[float],
    nu_value: Sequence[float],
    rng: np.random.Generator,
) -> tuple[float, ...]:
    """Instantaneous jump: x' = f2(x, nu, noise sample); time is unchanged."""
    if model.noise.sampler != "gaussian":
        raise ValueError(f"unknown noise sampler {model.noise.sampler!r}")
    w = rng.normal(0.0, 1.0, size=len(model.noise_vars))
    order = model.state_vars + model.input_vars + model.noise_vars
    vals = tuple(float(v) for v in x) + tuple(float(v) for v in nu_value) + tuple(w)
    try:
        out = tuple(float(p.compiled(order)(vals)) for p in model.f2)
    except OverflowError:
        raise BlowUpError(0, "jump map overflowed") from None
    for v in out:
        if not math.isfinite(v):
            raise BlowUpError(0, "jump map produced a non-finite state")
    return out


def simulate(
    model: SHSModel,
    controllers,
    config: SimConfig,
    acbc: Acbc | None = None,
    traj_index: int = 0,
) -> Trajectory:
    """One seeded trajectory of the augmented system.

    Starts at z = 0 with x0 drawn uniformly from X0 (or fixed by config).
    The schedule decides when an admissible jump fires; every other
    transition flows for one period with the flow controller's value held
    constant. Unsafe entry (x in Xu) and certificate exceedance
    (beta(z) B(x) >= eta, when a lifted certificate is supplied) are
    recorded at transition boundaries only.
    """
    nu_flow, nu_jump = _controllers(controllers)
    jp = model.jump
    config.schedule.validate_for(jp)
    rng = trajectory_rng(config.master_seed, traj_index)

    if config.x0 is not None:
        x = tuple(float(v) for v in config.x0)
    else:
        pt = model.X0.sample(rng)
        x = tuple(pt[v] for v in model.state_vars)
    z = 0
    time = 0.0

    sv = model.state_vars
    flow_fns = [p.compiled(sv) for p in nu_flow]
    jump_fns = [p.compiled(sv) for p in nu_jump]
    bfun = acbc.base.Bbar.compiled(sv) if acbc is not None else None

    jumps_taken = 0
    gap = config.schedule.next_gap(jp, 0, rng)

    first_unsafe: int | None = None
    first_exceed: int | None = None
    records: list[TransitionRecord] = []

    def record(k: int, scenario: str) -> None:
        nonlocal first_unsafe, first_exceed
        bval = None
        if bfun is not None:
            try:
                bval = acbc.beta(z) * bfun(x)
            except OverflowError:
                bval = math.inf
            if first_exceed is None and bval >= acbc.eta:
                first_exceed = k
        if first_unsafe is None and model.Xu.contains_point(dict(zip(sv, x))):
            first_unsafe = k
        records.append(TransitionRecord(k, time, z, scenario, x, bval))

    record(0, "init")
    for k in range(1, config.horizon_T + 1):
        if z == gap:
            if not jp.q1 <= z <= jp.q2:
                raise ValueError(f"schedule demands a jump at inadmissible z={z}")
            try:
                nu = tuple(float(f(x)) for f in jump_fns)
            except OverflowError:
                raise BlowUpError(k, "controller value overflowed") from None
            x = jump_step(model, x, nu, rng)
            z = 0
            jumps_taken += 1
            gap = config.schedule.next_gap(jp, jumps_taken, rng)
            record(k, JUMP)
        else:
            if z > jp.q2 - 1:
                raise ValueError(f"flow transition inadmissible at z={z}")
            try:
                nu = tuple(float(f(x)) for f in flow_fns)
            except OverflowError:
                raise BlowUpError(k, "controller value overflowed") from None
            x = flow_step(model, x, nu, jp.tau, config.substeps_per_tau, rng)
            z += 1
            time += jp.tau
            record(k, FLOW)

    return Trajectory(
        records=tuple(records),
        seed=config.master_seed,
        traj_index=traj_index,
        first_unsafe=first_unsafe,
        first_exceed=first_exceed,
    )


def trajectory_csv(model: SHSModel, traj: Trajectory) -> str:
    """CSV dump with columns k, time, z, scenario, x_1..x_n, B_value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["k", "time", "z", "scenario"]
        + [f"x_{i + 1}" for i in range(model.n)]
        + ["B_value"]
    )
    for r in traj.records:
        writer.writerow(
            [r.k, repr(r.time), r.z, r.scenario]
            + [repr(v) for v in r.x]
            + ["" if r.b_value is None else repr(r.b_value)]
        )
    return buf.getvalue()


def clopper_pearson(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact binomial two-sided confidence interval."""
    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    a = 1.0 - confidence
    lo = 0.0 if successes == 0 else float(stats.beta.ppf(a / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(stats.beta.ppf(1 - a / 2, successes + 1, trials - successes))
    return lo, hi


@dataclass(frozen=True)
class McReport:
    """Aggregate exceedance/unsafe frequencies against the certified bound."""

    n_trajectories: int
    horizon_T: int
    master_seed: int
    schedule: str
    exceed_count: int
    unsafe_count: int
    blowup_count: int
    p_exceed_hat: float
    p_unsafe_hat: float
    ci99_exceed: tuple[float, float]
    ci99_unsafe: tuple[float, float]
    delta: float
    bound_violated: bool

    def to_dict(self) -> dict:
        return {
            "n_trajectories": self.n_trajectories,
            "horizon_T": self.horizon_T,
            "master_seed": self.master_seed,
            "schedule": self.schedule,
            "exceed_count": self.exceed_count,
            "unsafe_count": self.unsafe_count,
            "blowup_count": self.blowup_count,
            "p_exceed_hat": self.p_exceed_hat,
            "p_unsafe_hat": self.p_unsafe_hat,
            "ci99_exceed": list(self.ci99_exceed),
            "ci99_unsafe": list(self.ci99_unsafe),
            "delta": self.delta,
            "bound_violated": self.bound_violated,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def monte_carlo(
    model: SHSModel,
    controllers,
    acbc: Acbc,
    config: SimConfig,
    delta: float | None = None,
) -> McReport:
    """Estimate exceedance and unsafe-entry frequencies over seeded runs.

    Runs are independent trajectories with per-index RNG streams, so the
    aggregate is order-independent. A trajectory that blows up (non-finite
    state) is counted, conservatively, as both exceeding and unsafe. The
    violation flag compares the 99% exact lower confidence bound of the
    exceedance frequency against delta (computed from the lifted
    certificate when not supplied).
    """
    if delta is None:
        from .bound import compute_delta_for

        delta = compute_delta_for(acbc, config.horizon_T).delta
    n = config.n_trajectories
    exceed = unsafe = blowups = 0
    for idx in range(n):
        try:
            traj = simulate(model, controllers, config, acbc=acbc, traj_index=idx)
        except BlowUpError:
            blowups += 1
            exceed += 1
            unsafe += 1
            continue
        if traj.first_exceed is not None:
            exceed += 1
        if traj.first_unsafe is not None:
            unsafe += 1
    ci_e = clopper_pearson(exceed, n)
    ci_u = clopper_pearson(unsafe, n)
    return McReport(
        n_trajectories=n,
        horizon_T=config.horizon_T,
        master_seed=config.master_seed,
        schedule=config.schedule.describe(),
        exceed_count=exceed,
        unsafe_count=unsafe,
        blowup_count=blowups,
        p_exceed_hat=exceed / n,
        p_unsafe_hat=unsafe / n,
        ci99_exceed=ci_e,
        ci99_unsafe=ci_u,
        delta=delta,
        bound_violated=ci_e[0] > delta,
    )
