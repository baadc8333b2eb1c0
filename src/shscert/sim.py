"""Seeded Monte Carlo simulation of the controlled jump-diffusion system.

The flow is integrated with Euler-Maruyama (Brownian increments plus exact
per-substep Poisson counts); jumps apply the stochastic jump map
instantaneously at scheduled instants. Each trajectory owns one
counter-based (Philox) stream keyed directly by the master seed and its
index (``trajectory_rng``), so results are reproducible and independent of
execution order. The stream is read in one layout:

1. the sample of X0, unless the start is fixed;
2. jump chunk 0 (``_draw_jump_chunk``): the gaps before jumps
   0 .. JUMP_CHUNK - 1 (one draw for a uniform schedule, none otherwise),
   then their jump noise W;
3. then each chunk when the trajectory first needs it: flow chunk i
   (``_draw_flow_chunk``) at its (i C)-th flow, with C =
   ``_chunk_periods(substeps)``, and jump chunk i when the gap before jump
   i JUMP_CHUNK is first needed, right after the jump before it fires.

A flow reads the next entry of its flow chunk and a jump the next entry of
its jump chunk, so flows draw no jump noise and jumps no flow noise. Chunk
sizes do not depend on the horizon, and a chunk is drawn whole even when
the horizon ends inside it: a trajectory over horizon T is the first T
transitions of the same trajectory over any longer horizon.

``simulate`` runs one trajectory on Python floats, through the flow-period
and jump-map kernels ``SHSModel.scalar_flow`` and ``SHSModel.jump_map``,
generated once per model and cached on it; ``trajectories``, behind
``monte_carlo``, steps blocks of them together as state columns. At each
transition a block runs the jump kernel and the block variant of the flow
kernel (``SHSModel.block_flow``) once each on the whole columns, where
some rows jump and others flow; it splits the rows by masks and merges the
results only then, not when every live row flows or every one jumps, as
under a fixed schedule. The block kernel is the scalar kernel's
expressions lowered to one in-place ufunc call per operation on columns
made once per block, so a substep allocates no array data. Both engines
give the same trajectories bitwise, because both read the same noise and
evaluate every polynomial with the operations and order of
``Polynomial.source``. The block kernel skips the per-substep finiteness
test; the block checks once per period and leaves the substep of a blow-up
to the scalar kernel.

Neither engine decides anything from the states it steps: ``_Outcomes``
computes beta(z) B(x), decides exceedance and unsafe entry and builds the
records, from ``WINDOW`` transitions at a time of a block, so its memory
does not grow with the horizon, and from the whole run of ``simulate``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .augment import Acbc
from .bound import compute_delta_for
from .certify import CbcCandidate
from .codec import Codec
from .model import FLOW, JUMP, BlowUpError, JumpParams, JumpSchedule, SHSModel


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
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.master_seed >= 2**64:
            raise ValueError("master_seed must be < 2**64")


@dataclass(frozen=True)
class TransitionRecord(Codec):
    k: int
    time: float
    z: int
    scenario: str
    x: tuple[float, ...]
    b_value: float | None = field(default=None, metadata={"key": "B_value"})


@dataclass(frozen=True)
class Trajectory:
    records: tuple[TransitionRecord, ...]
    first_unsafe: int | None
    first_exceed: int | None


@functools.cache
def _philox_key() -> type:
    """The seed-sequence type that hands Philox its two key words as given:
    ``Philox(key=...)`` would first seed a ``SeedSequence`` from OS entropy
    and then discard it, which costs more than the rest of the stream's
    set-up. Built on first use, because ``numpy.random`` takes about 10 ms
    to import, which every start-up would pay."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, low: int, high: int):
            self.words = (low, high)

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # Philox asks for its key once, as two 64-bit words
            return np.array(self.words, dtype=np.uint64)

    return PhiloxKey


def trajectory_rng(master_seed: int, traj_index: int) -> np.random.Generator:
    """The Philox stream of one trajectory: the 128-bit key holds
    ``master_seed`` in its low and ``traj_index`` in its high 64 bits, with
    no seed hashing, so it is stable across workers; it is the stream of
    ``Philox(key=master_seed | traj_index << 64)``. The counter starts at
    0; its high word stays free for branches of a trajectory, so a plain run
    is branch 0."""
    return np.random.Generator(np.random.Philox(_philox_key()(master_seed, traj_index)))


# Flow noise is drawn a chunk of C = NOISE_SUBSTEPS // substeps flow periods
# at a time (at least one): 64 periods at the default 20 substeps. It bounds
# a block's flow noise to BLOCK_SIZE x NOISE_SUBSTEPS x (b + r) values
# whatever the substeps. Jump noise and gaps are drawn JUMP_CHUNK jumps at a
# time. Both sizes are part of the stream layout, so changing either changes
# every trajectory; neither depends on the horizon.
NOISE_SUBSTEPS = 1280
JUMP_CHUNK = 64


def _chunk_periods(substeps: int) -> int:
    """Flow periods per flow chunk at ``substeps`` substeps per period."""
    return max(1, NOISE_SUBSTEPS // substeps)


def _noise_arrays(model: SHSModel, lead: tuple[int, ...], periods: int, substeps: int):
    """Zeroed arrays to draw chunks into: dW (*lead, periods, substeps, b),
    dP (*lead, periods, substeps, r) and W (*lead, JUMP_CHUNK, w). Zeroed,
    so that block rows that read an entry they do not use read finite
    values."""
    return (
        np.zeros((*lead, periods, substeps, model.brownian_dim)),
        np.zeros((*lead, periods, substeps, model.poisson_dim), dtype=np.int64),
        np.zeros((*lead, JUMP_CHUNK, len(model.noise_vars))),
    )


def _chunk_means(model: SHSModel, h: float, periods: int, substeps: int) -> list[float]:
    """Per Poisson channel, the mean count over one flow chunk of
    ``periods`` x ``substeps`` substeps of length h."""
    return [rate * h * periods * substeps for rate in model.rates]


def _draw_flow_chunk(rng: np.random.Generator, means: list[float], dW: np.ndarray, dP: np.ndarray) -> None:
    """Fill one flow chunk of C periods, in this order: standard normal
    Brownian increments dW (C, substeps, b); then, per Poisson channel j, a
    total K_j ~ Poisson(``means[j]``) and K_j substep indices drawn uniformly
    from the chunk's C x substeps cells, counted into dP[..., j]. Given their
    total, iid Poisson counts are multinomial with equal cells, so each cell
    is Poisson(``means[j]`` / (C x substeps)) exactly. Both engines draw
    through here, so each stream is read the same way."""
    if dW.size:
        rng.standard_normal(out=dW)
    C, S = dP.shape[:2]
    for j, mean in enumerate(means):
        hits = rng.integers(0, C * S, rng.poisson(mean))
        dP[..., j] = np.bincount(hits, minlength=C * S).reshape(C, S)


def _draw_jump_chunk(
    rng: np.random.Generator, schedule: JumpSchedule, jump: JumpParams, W: np.ndarray
) -> Sequence[int]:
    """Draw one jump chunk for the next JUMP_CHUNK jumps: their gap table
    (``JumpSchedule.gap_table``: one draw for a uniform schedule, none
    otherwise), then their standard normal jump noise W (JUMP_CHUNK, w).
    Returns the gap table; the trajectory's jump i, counted from its first
    jump, reads the gap ``table[i % len(table)]``."""
    gaps = schedule.gap_table(jump, JUMP_CHUNK, rng)
    if W.size:
        rng.standard_normal(out=W)
    return gaps


def flow_step(
    model: SHSModel,
    x: Sequence[float],
    nu_value: Sequence[float],
    tau: float,
    substeps: int,
    dW: np.ndarray,
    dP: np.ndarray,
) -> tuple[float, ...]:
    """One sampling period of Euler-Maruyama flow under a held input.

    x <- x + f1(x, nu) h + sigma(x) sqrt(h) dW_s + rho(x) dP_s for each
    substep s, with h = tau / substeps, standard normal increments dW
    (substeps, b) and Poisson counts dP (substeps, r) of mean rate*h,
    through the model's generated ``scalar_flow`` kernel on Python floats.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    h = tau / substeps
    return model.scalar_flow(
        [float(v) for v in x],
        [float(v) for v in nu_value],
        h,
        math.sqrt(h),
        dW.tolist(),
        dP.tolist(),
        substeps,
    )


def jump_step(
    model: SHSModel,
    x: Sequence[float],
    nu_value: Sequence[float],
    w: np.ndarray,
) -> tuple[float, ...]:
    """Instantaneous jump: x' = f2(x, nu, w) under the noise sample w; time
    is unchanged."""
    out = model.jump_map([float(v) for v in x], [float(v) for v in nu_value], w.tolist())
    for v in out:
        if not math.isfinite(v):
            raise BlowUpError(0, "jump map produced a non-finite state")
    return out


def check_config(
    model: SHSModel, config: SimConfig, acbc: Acbc | None = None, x0_name: str = "x0"
) -> None:
    """Raise ``ValueError`` when ``config`` or ``acbc`` does not fit
    ``model``: a schedule gap outside [q1, q2], a fixed start of the wrong
    length or with a non-finite component (the message calls the start
    ``x0_name``), or a lifted certificate for other jump parameters."""
    config.schedule.validate_for(model.jump)
    if acbc is not None and acbc.jump != model.jump:
        raise ValueError(
            f"the lifted certificate's jump parameters {acbc.jump} differ from the model's {model.jump}"
        )
    if config.x0 is not None and len(config.x0) != model.n:
        raise ValueError(f"{x0_name} needs {model.n} component(s)")
    if config.x0 is not None and not all(map(math.isfinite, config.x0)):
        raise ValueError(f"{x0_name} must be finite, got {config.x0}")


class _Outcomes:
    """What N trajectories decide from their stepped states, whichever
    engine stepped them: per transition k, the certificate value b =
    beta(z) Bbar(x) when a lifted certificate is given, exceedance (``not b
    < eta``, so NaN counts), and unsafe entry (x in Xu); per row, the first
    k of each; and the records of the first ``n_kept`` rows.

    An engine hands over consecutive transitions in windows (``window``)
    and collects the results at the end (``results``). A record's scenario
    and time follow from z: after transition 0, z > 0 marks a flow (which
    leaves z >= 1) and z == 0 a jump (which resets it), and the time is
    the running sum of tau over the flows, which ``cumsum`` adds in order.
    Memory holds the first indices and the kept rows' slices only.
    """

    def __init__(self, model: SHSModel, acbc: Acbc | None, N: int, n_kept: int):
        self.bfun = None if acbc is None else acbc.base.Bbar.compiled(model.state_vars)
        self.beta = None if acbc is None else np.array(acbc.weights)
        self.eta = None if acbc is None else acbc.eta
        self.unsafe_box = [(model.state_vars.index(v), lo, hi) for v, (lo, hi) in model.Xu.intervals.items()]
        self.tau = model.jump.tau
        self.n_kept = n_kept
        self.first_exceed = np.full(N, -1, dtype=np.int64)
        self.first_unsafe = np.full(N, -1, dtype=np.int64)
        self.k0 = 0
        self.kept: list[tuple] = []

    def _first(self, hits: np.ndarray, firsts: np.ndarray) -> None:
        """Set ``firsts`` to the first hit's transition where unset."""
        new = hits.any(0) & (firsts < 0)
        firsts[new] = self.k0 + hits.argmax(0)[new]

    def window(self, X: np.ndarray, z: np.ndarray) -> None:
        """Decide the next len(z) transitions from their states X (used, n,
        N) and counters z (used, N). The arrays may be reused afterwards."""
        xs = [X[:, i] for i in range(X.shape[1])]
        bval = None
        if self.bfun is not None:
            bval = self.beta[z] * self.bfun(xs)
            self._first(~(bval < self.eta), self.first_exceed)
        inside = np.ones(z.shape, dtype=bool)
        for i, lo, hi in self.unsafe_box:
            inside &= (lo <= xs[i]) & (xs[i] <= hi)
        self._first(inside, self.first_unsafe)
        if self.n_kept:
            m = self.n_kept
            self.kept.append((
                z[:, :m].copy(),
                X[:, :, :m].copy(),
                None if bval is None else bval[:, :m].copy(),
            ))
        self.k0 += len(z)

    def results(self, errors: Sequence[BlowUpError | None]) -> list[Trajectory | BlowUpError]:
        """Per row, its ``BlowUpError`` if ``errors`` holds one, else its
        ``Trajectory``, with records for the first ``n_kept`` rows."""
        if self.n_kept:
            z_all, x_all, b_all = zip(*self.kept)
            z_kept = np.concatenate(z_all)
            # per kept row, its value at each transition; z is 0 at transition 0
            times = np.cumsum(np.where(z_kept != 0, self.tau, 0.0), axis=0).T.tolist()
            zs = z_kept.T.tolist()
            xs = np.concatenate(x_all).transpose(2, 0, 1).tolist()
            bvals = None if self.bfun is None else np.concatenate(b_all).T.tolist()
        out: list[Trajectory | BlowUpError] = []
        for row, error in enumerate(errors):
            if error is not None:
                out.append(error)
                continue
            records = ()
            if row < self.n_kept:
                scenarios = ["init", *((JUMP, FLOW)[zk > 0] for zk in zs[row][1:])]
                records = tuple(map(
                    TransitionRecord, range(len(zs[row])), times[row], zs[row], scenarios,
                    map(tuple, xs[row]), [None] * len(zs[row]) if bvals is None else bvals[row],
                ))
            out.append(
                Trajectory(
                    records=records,
                    first_unsafe=None if self.first_unsafe[row] < 0 else int(self.first_unsafe[row]),
                    first_exceed=None if self.first_exceed[row] < 0 else int(self.first_exceed[row]),
                )
            )
        return out


def simulate(
    model: SHSModel,
    cand: CbcCandidate,
    config: SimConfig,
    acbc: Acbc | None = None,
    traj_index: int = 0,
) -> Trajectory:
    """One seeded trajectory of the augmented system.

    Starts at z = 0 with x0 drawn uniformly from X0 (or fixed by config).
    The schedule decides when an admissible jump fires; every other
    transition flows for one period with the flow controller's value held
    constant. Unsafe entry (x in Xu) and certificate exceedance
    (beta(z) B(x) >= eta or NaN, when a lifted certificate is supplied)
    are recorded at transition boundaries only. A config or a lifted
    certificate that does not fit the model raises ``ValueError`` (see
    ``check_config``).

    This steps one trajectory on Python floats, through ``flow_step`` and
    ``jump_step``, and hands its whole run to ``_Outcomes`` as one window.
    It is the reference for the batched engine behind ``trajectories``,
    which must give bitwise equal trajectories: for the stepping (kernels,
    noise layout, counter and blow-ups) and for the windowing, since a
    block hands over windows of ``WINDOW`` transitions.
    """
    check_config(model, config, acbc)
    return _simulate(model, cand, config, acbc, traj_index, records=True)


def _simulate(
    model: SHSModel,
    cand: CbcCandidate,
    config: SimConfig,
    acbc: Acbc | None,
    traj_index: int,
    records: bool,
) -> Trajectory:
    """``simulate`` on a config its caller has checked, with the
    trajectory's records only if ``records``."""
    jp, sv = model.jump, model.state_vars
    rng = trajectory_rng(config.master_seed, traj_index)
    S = config.substeps_per_tau
    C = _chunk_periods(S)
    means = _chunk_means(model, jp.tau / S, C, S)
    dW, dP, W = _noise_arrays(model, (), C, S)

    if config.x0 is not None:
        x = tuple(float(v) for v in config.x0)
    else:
        pt = model.X0.sample(rng)
        x = tuple(pt[v] for v in sv)
    z = 0

    flow_fns = [p.compiled(sv) for p in cand.nu_flow]
    jump_fns = [p.compiled(sv) for p in cand.nu_jump]

    flows = jumps = 0
    gaps = _draw_jump_chunk(rng, config.schedule, jp, W)
    gap = gaps[0]

    xs, zs = [x], [z]
    for _ in range(config.horizon_T):
        if z == gap:
            nu = tuple(f(x) for f in jump_fns)
            x = jump_step(model, x, nu, W[jumps % JUMP_CHUNK])
            z = 0
            jumps += 1
            if not jumps % JUMP_CHUNK:
                gaps = _draw_jump_chunk(rng, config.schedule, jp, W)
            gap = gaps[jumps % len(gaps)]
        else:
            e = flows % C
            if not e:
                _draw_flow_chunk(rng, means, dW, dP)
            nu = tuple(f(x) for f in flow_fns)
            x = flow_step(model, x, nu, jp.tau, S, dW[e], dP[e])
            flows += 1
            z += 1
        xs.append(x)
        zs.append(z)

    outcomes = _Outcomes(model, acbc, 1, int(records))
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes.window(np.array(xs, dtype=float)[:, :, None], np.array(zs)[:, None])
    return outcomes.results([None])[0]


# Trajectories integrated together by the batched engine; bounds its memory
# whatever the number of trajectories.
BLOCK_SIZE = 256

# Fewer trajectories than this run one by one on ``simulate``. A block pays a
# fixed cost per period, the numpy calls of its kernel, which its cheaper
# rows repay from about 16-20 of them. Best of 15 on cases 1-3 under their
# own schedules (T = 100, 2 cores): a block of 16 took 12.4/9.1/6.2 ms
# against 12.1/12.7/9.4 ms for 16 ``simulate`` calls, and lost or tied
# case 1 in all of five such rounds; a block of 20 took 13.3/9.7/6.3 ms
# against 20.6/15.2/10.8 ms, and won every case in four of five rounds.
BATCH_MIN = 20

# Transitions per window of the batched engine: it hands them to _Outcomes
# at once, WINDOW x N values per coordinate, so its buffers do not grow with
# the horizon.
WINDOW = 64


def trajectories(
    model: SHSModel,
    cand: CbcCandidate,
    config: SimConfig,
    acbc: Acbc | None = None,
    keep: int = 0,
) -> Iterator[Trajectory | BlowUpError]:
    """Trajectories 0..n-1 of ``config`` in index order.

    Each is a ``Trajectory``, or the ``BlowUpError`` that ended it, without
    its traceback, whose frames would keep the run's state alive. The
    first ``keep`` carry their records; the others carry only their
    first-exceed and first-unsafe indices. Blocks of ``BLOCK_SIZE``
    trajectories run on the batched engine, which steps a whole block as
    arrays; a block of fewer than ``BATCH_MIN`` runs one trajectory at a
    time on ``simulate``'s path, which builds records for kept rows only.
    Both give the same result for every index.
    """
    check_config(model, config, acbc)
    n = config.n_trajectories
    for start in range(0, n, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, n)
        if stop - start >= BATCH_MIN:
            yield from _simulate_block(model, cand, config, acbc, start, stop, keep)
            continue
        for idx in range(start, stop):
            try:
                traj = _simulate(model, cand, config, acbc, idx, records=idx < keep)
            except BlowUpError as e:
                traj = e.with_traceback(None)
            yield traj


def _simulate_block(
    model: SHSModel,
    cand: CbcCandidate,
    config: SimConfig,
    acbc: Acbc | None,
    start: int,
    stop: int,
    keep: int,
) -> list[Trajectory | BlowUpError]:
    """Trajectories start..stop-1, stepped together as n state columns of
    N rows.

    Each row counts its own flows and jumps. A row draws each chunk from its
    own stream when ``simulate`` would, through the same
    ``_draw_flow_chunk`` and ``_draw_jump_chunk``, into its slice of noise
    arrays allocated once per block; under a fixed or cyclic schedule every
    row reads the schedule's own gaps, drawn by none. Each transition finds
    the rows that jump, ``jumped = alive & (z == gap)``, and runs
    ``SHSModel.block_flow`` and ``SHSModel.jump_map`` on the whole columns,
    each row at its own count. When every live row flows, or every one
    jumps, the kernel's columns are the new state. Otherwise the flowing
    rows are ``alive & ~jumped``, those not flowing see zero Poisson counts,
    and ``where`` merges the two kernels' results, so rows that do not move
    keep their state. Rows that left the block are stepped along, on
    whatever values they hold, and their results are never read. Both
    kernels evaluate every value with the expressions and order of
    operations of the scalar kernels, so each row equals the scalar
    trajectory bitwise. ``block_flow`` runs each substep as in-place ufunc
    calls into buffers it keeps per (N, h), and returns fresh columns (see
    ``model._block_source``).

    The block kernel tests no substep for finiteness. Since a non-finite
    coordinate stays non-finite, the state is checked once at the end of the
    period, and a row that fails there runs its period again on
    ``scalar_flow``, which names the substep in its ``BlowUpError``. A row
    leaves the block when its state stops being finite.

    Each transition writes its state and z to a buffer of ``WINDOW``
    transitions, which goes to ``_Outcomes`` when full and at the end.
    Beside the noise chunks, memory stays O(WINDOW N n + T keep) over a
    horizon of T transitions.
    """
    jp, sv, n = model.jump, model.state_vars, model.n
    N = stop - start
    S = config.substeps_per_tau
    C = _chunk_periods(S)
    h = jp.tau / S
    sqh = math.sqrt(h)
    means = _chunk_means(model, h, C, S)
    flow_fns = [p.compiled(sv) for p in cand.nu_flow]
    jump_fns = [p.compiled(sv) for p in cand.nu_jump]
    schedule = config.schedule
    rngs = [trajectory_rng(config.master_seed, i) for i in range(start, stop)]
    dW, dP, W = _noise_arrays(model, (N,), C, S)
    rows = np.arange(N)

    if config.x0 is not None:
        cols = [np.full(N, float(v)) for v in config.x0]
    else:
        pts = [model.X0.sample(g) for g in rngs]
        cols = [np.array([pt[v] for pt in pts], dtype=float) for v in sv]
    z = np.zeros(N, dtype=np.int64)
    flows = np.zeros(N, dtype=np.int64)
    jumps = np.zeros(N, dtype=np.int64)
    # per row, the gap table of its jump chunk (see _draw_jump_chunk)
    gaps = np.array([_draw_jump_chunk(g, schedule, jp, W[row]) for row, g in enumerate(rngs)])
    gap = gaps[:, 0]
    alive = np.ones(N, dtype=bool)
    errors: list[BlowUpError | None] = [None] * N
    outcomes = _Outcomes(model, acbc, N, max(0, min(keep, stop) - start))

    # the window: per transition the state and z
    Xw = np.empty((WINDOW, n, N))
    zw = np.empty((WINDOW, N), dtype=np.int64)

    def blow_up(bad: np.ndarray, error) -> None:
        """End the rows of mask ``bad``, each with ``error(row)``."""
        for row in bad.nonzero()[0].tolist():
            errors[row] = error(row)
        alive[bad] = False

    def scalar_error(row: int, dw: np.ndarray, dp: np.ndarray) -> BlowUpError:
        """The error of the scalar kernel on the period the row failed."""
        x = [float(col[row]) for col in cols]
        try:
            model.scalar_flow(x, [f(x) for f in flow_fns], h, sqh, dw[row].tolist(), dp[row].tolist(), S)
        except BlowUpError as err:
            return err.with_traceback(None)
        raise AssertionError("block and scalar flow kernels disagree")

    slot = 0
    live = N
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.horizon_T + 1):
            if k:
                jumped = z == gap
                jumped &= alive
                # masks and merges only when some live rows flow and others jump
                n_jumped = np.count_nonzero(jumped)
                mixed = 0 < n_jumped < live
                new = cols
                if n_jumped < live:
                    flowing = alive & ~jumped if mixed else alive
                    e = flows % C
                    for row in (flowing & (e == 0)).nonzero()[0].tolist():
                        _draw_flow_chunk(rngs[row], means, dW[row], dP[row])
                    dw, dp = dW[rows, e], dP[rows, e]
                    if mixed:
                        dp[~flowing] = 0
                    nu = [f(cols) for f in flow_fns]
                    # the kernel takes (substeps, b, N) and (substeps, r, N)
                    out = model.block_flow(cols, nu, h, sqh, dw.transpose(1, 2, 0), dp.transpose(1, 2, 0), S)
                    bad = flowing & ~functools.reduce(np.logical_and, map(np.isfinite, out))
                    if np.count_nonzero(bad):
                        blow_up(bad, lambda row: scalar_error(row, dw, dp))
                        flowing = flowing & alive
                    new = [np.where(flowing, y, x) for y, x in zip(out, cols)] if mixed else out
                    flows += flowing
                    z += flowing
                if n_jumped:
                    e = jumps % JUMP_CHUNK
                    nu = [f(cols) for f in jump_fns]
                    w = W[rows, e]
                    out = model.jump_map(cols, nu, [w[:, j] for j in range(w.shape[1])])
                    # a constant row of f2 comes back as one float, which broadcasts
                    bad = jumped & ~functools.reduce(np.logical_and, map(np.isfinite, out))
                    if np.count_nonzero(bad):
                        blow_up(bad, lambda row: BlowUpError(0, "jump map produced a non-finite state"))
                        jumped &= alive
                    if mixed:
                        new = [np.where(jumped, y, x) for y, x in zip(out, new)]
                    else:
                        new = [np.full(N, y) if isinstance(y, float) else y for y in out]
                    jumps += jumped
                    z[jumped] = 0
                    e = jumps % JUMP_CHUNK
                    for row in (jumped & (e == 0)).nonzero()[0].tolist():
                        gaps[row] = _draw_jump_chunk(rngs[row], schedule, jp, W[row])
                    gap = gaps[rows, jumps % gaps.shape[1]]
                cols = new
            for i, col in enumerate(cols):
                Xw[slot, i] = col
            zw[slot] = z
            slot += 1
            if slot == WINDOW:
                outcomes.window(Xw, zw)
                slot = 0
            live = np.count_nonzero(alive)
            if not live:
                break
        if slot:
            outcomes.window(Xw[:slot], zw[:slot])
    return outcomes.results(errors)


def trajectory_csv(model: SHSModel, traj: Trajectory) -> str:
    """CSV dump with columns k, time, z, scenario, x_1..x_n, B_value.

    Floats are written with ``repr``, which reads back exactly; no field
    ever needs quoting, so the text is what ``csv.writer`` would write."""
    header = ["k", "time", "z", "scenario", *(f"x_{i + 1}" for i in range(model.n)), "B_value"]
    lines = [",".join(header)]
    for r in traj.records:
        b = "" if r.b_value is None else repr(r.b_value)
        lines.append(",".join([str(r.k), repr(r.time), str(r.z), r.scenario, *map(repr, r.x), b]))
    lines.append("")
    return "\n".join(lines)


# The level of the report's ci99_* intervals.
CONFIDENCE = 0.99


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact binomial two-sided ``CONFIDENCE`` interval, from
    ``betaincinv``, which ``scipy.stats.beta.ppf`` calls too. It is imported
    on first use: ``scipy.stats`` would add about a second to every
    start-up."""
    from scipy.special import betaincinv

    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    a = 1.0 - CONFIDENCE
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, a / 2))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1 - a / 2))
    return lo, hi


@dataclass(frozen=True)
class McReport(Codec):
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
    # the first trajectories asked for with ``keep``; not part of the report
    kept: tuple[Trajectory | BlowUpError, ...] = field(
        default=(), compare=False, repr=False, metadata={"key": None}
    )


def monte_carlo(
    model: SHSModel,
    cand: CbcCandidate,
    acbc: Acbc,
    config: SimConfig,
    keep: int = 0,
) -> McReport:
    """Estimate exceedance and unsafe-entry frequencies over seeded runs.

    Runs are independent trajectories with per-index RNG streams, so the
    aggregate is order-independent. A trajectory that blows up (non-finite
    state) is counted, conservatively, as both exceeding and unsafe. The
    violation flag compares the 99% exact lower confidence bound of the
    exceedance frequency against the delta of the lifted certificate over
    the config's horizon. The first ``keep`` trajectories come back in
    ``kept``, records and all, so callers need not simulate them again.
    """
    delta = compute_delta_for(acbc, config.horizon_T).delta
    n = config.n_trajectories
    exceed = unsafe = blowups = 0
    kept = []
    for idx, traj in enumerate(trajectories(model, cand, config, acbc, keep)):
        if idx < keep:
            kept.append(traj)
        if isinstance(traj, BlowUpError):
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
        kept=tuple(kept),
    )
