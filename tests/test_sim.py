from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from shscert import (
    BlowUpError,
    CbcCandidate,
    JumpParams,
    JumpSchedule,
    Polynomial,
    SimConfig,
    clopper_pearson,
    construct_acbc,
    flow_step,
    jump_step,
    monte_carlo,
    simulate,
    trajectory_csv,
)
from shscert import load_case, poly, sim
from shscert.model import FLOW, JUMP, NoiseConfig, SHSModel
from shscert.poly import IntervalBox, NoiseMoments
from shscert.sim import _simulate_block, trajectories, trajectory_rng

from conftest import period_noise, scalar_model

X = Polynomial.variable("x")


@pytest.fixture
def blocks_of_8(monkeypatch):
    """Eight trajectories run as one block, whatever ``sim.BATCH_MIN`` is."""
    monkeypatch.setattr(sim, "BATCH_MIN", 8)


@pytest.fixture
def windows_of_4(monkeypatch):
    """The batched engine decides exceedance and unsafe entry every four
    transitions, whatever ``sim.WINDOW`` is."""
    monkeypatch.setattr(sim, "WINDOW", 4)


class TestFlowStep:
    def test_frozen_dynamics_keep_state(self):
        m = scalar_model(f1=0.0 * X, f2=X, sigma=0.0, rho=0.0, rate=0.0)
        rng = np.random.default_rng(0)
        assert flow_step(m, (1.23,), (0.0,), 0.1, 20, *period_noise(m, rng, 0.1, 20)) == (1.23,)

    def test_constant_drift_independent_of_substeps(self):
        nu = Polynomial.variable("nu")
        m = scalar_model(f1=Polynomial.constant(2.0) + 0.0 * nu, f2=X, sigma=0.0, rho=0.0, rate=0.0)
        rng = np.random.default_rng(0)
        for substeps in (1, 7, 20, 100):
            (got,) = flow_step(m, (0.5,), (0.0,), 0.1, substeps, *period_noise(m, rng, 0.1, substeps))
            assert got == pytest.approx(0.5 + 0.2, abs=1e-12)

    def test_brownian_variance(self):
        m = scalar_model(f1=0.0 * X, f2=X, sigma=0.6, rho=0.0, rate=0.0)
        rng = np.random.default_rng(2024)
        samples = np.array(
            [flow_step(m, (0.0,), (0.0,), 0.1, 20, *period_noise(m, rng, 0.1, 20))[0] for _ in range(30_000)]
        )
        assert float(np.var(samples)) == pytest.approx(0.036, rel=0.05)

    def test_poisson_reset_mean(self):
        m = scalar_model(f1=0.0 * X, f2=X, sigma=0.0, rho=0.5, rate=0.5)
        rng = np.random.default_rng(5)
        samples = np.array(
            [flow_step(m, (0.0,), (0.0,), 0.1, 20, *period_noise(m, rng, 0.1, 20))[0] for _ in range(30_000)]
        )
        # E[x'] = rho * rate * tau
        se = float(np.std(samples)) / math.sqrt(len(samples))
        assert float(np.mean(samples)) == pytest.approx(0.025, abs=3 * se)

    def test_blow_up_detected(self):
        nu = Polynomial.variable("nu")
        m = scalar_model(f1=X**3 + 0.0 * nu, f2=X, sigma=0.0, rho=0.0, rate=0.0)
        rng = np.random.default_rng(0)
        with pytest.raises(BlowUpError):
            flow_step(m, (10.0,), (0.0,), 1.0, 20, *period_noise(m, rng, 1.0, 20))

    def test_two_dimensional_deterministic_rotation(self):
        from shscert.model import NoiseConfig, SHSModel
        from shscert.poly import IntervalBox, NoiseMoments
        from shscert import JumpParams

        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        nu = Polynomial.variable("nu")
        zero = Polynomial.constant(0.0)
        m = SHSModel(
            state_vars=("x", "y"), input_vars=("nu",), noise_vars=("varsigma",),
            f1=(y + 0.0 * nu, -1.0 * x),
            sigma=((zero,), (zero,)),
            rho=((zero,), (zero,)),
            rates=(0.0,),
            f2=(x, y),
            noise=NoiseConfig((NoiseMoments.standard_normal(8),)),
            jump=JumpParams(0.1, 1, 7),
            X=IntervalBox({"x": (-2, 2), "y": (-2, 2)}),
            X0=IntervalBox({"x": (1, 1), "y": (0, 0)}),
            Xu=IntervalBox({"x": (2, 2), "y": (2, 2)}),
        )
        rng = np.random.default_rng(0)
        state = (1.0, 0.0)
        for _ in range(10):
            state = flow_step(m, state, (0.0,), 0.1, 200, *period_noise(m, rng, 0.1, 200))
        # after one unit of time the rotation reaches (cos 1, -sin 1)
        assert state[0] == pytest.approx(math.cos(1.0), abs=5e-3)
        assert state[1] == pytest.approx(-math.sin(1.0), abs=5e-3)


class TestJumpStep:
    def test_identity_map(self):
        m = scalar_model(f1=-X, f2=X, sigma=0.0, rho=0.0, rate=0.0)
        rng = np.random.default_rng(0)
        assert jump_step(m, (0.77,), (0.0,), rng.standard_normal(1)) == (0.77,)

    def test_pure_noise_mean(self):
        m = scalar_model(f1=-X, f2=0.5 * Polynomial.variable("varsigma"))
        rng = np.random.default_rng(8)
        samples = np.array([jump_step(m, (3.0,), (0.0,), rng.standard_normal(1))[0] for _ in range(30_000)])
        se = float(np.std(samples)) / math.sqrt(len(samples))
        assert float(np.mean(samples)) == pytest.approx(0.0, abs=3 * se)

    def test_unknown_sampler_rejected(self, case1):
        # the model cannot be built with it, so nothing ever draws from it
        with pytest.raises(ValueError, match="^unknown noise sampler 'cauchy'$"):
            replace(case1.model, noise=NoiseConfig(case1.model.noise.moments, sampler="cauchy"))

    def test_case_study_jump_mean_at_origin(self, case1):
        rng = np.random.default_rng(9)
        nu_val = case1.candidate.nu_jump[0].eval({"x": 0.0})
        assert nu_val == pytest.approx(2.6)
        samples = np.array(
            [jump_step(case1.model, (0.0,), (nu_val,), rng.standard_normal(1))[0] for _ in range(30_000)]
        )
        se = float(np.std(samples)) / math.sqrt(len(samples))
        assert float(np.mean(samples)) == pytest.approx(0.156, abs=3 * se)


class TestSimulate:
    def test_frozen_system_never_unsafe(self, case1):
        m = scalar_model(f1=0.0 * X, f2=X, sigma=0.0, rho=0.0, rate=0.0)
        config = SimConfig(horizon_T=100, master_seed=1, schedule=JumpSchedule.uniform())
        zero = (Polynomial.constant(0.0),)
        ctrl = replace(case1.candidate, nu_flow=zero, nu_jump=zero)
        for idx in range(20):
            traj = simulate(m, ctrl, config, traj_index=idx)
            assert traj.first_unsafe is None
            assert all(r.x == traj.records[0].x for r in traj.records)

    def test_same_seed_bit_identical(self, case1):
        acbc = construct_acbc(case1.candidate, case1.model.jump, 0.1, 8.0)
        config = SimConfig(horizon_T=60, master_seed=99, schedule=JumpSchedule.uniform())
        a = simulate(case1.model, case1.candidate, config, acbc=acbc, traj_index=4)
        b = simulate(case1.model, case1.candidate, config, acbc=acbc, traj_index=4)
        assert a == b

    def test_different_indices_differ(self, case1):
        config = SimConfig(horizon_T=30, master_seed=99, schedule=JumpSchedule.uniform())
        a = simulate(case1.model, case1.candidate, config, traj_index=0)
        b = simulate(case1.model, case1.candidate, config, traj_index=1)
        assert a.records != b.records

    def test_stream_independent_of_evaluation_order(self):
        a = trajectory_rng(7, 3).normal(size=4)
        _ = trajectory_rng(7, 0).normal(size=100)
        b = trajectory_rng(7, 3).normal(size=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed, idx", [(0, 0), (5, 3), (2**64 - 1, 2**63 + 5)])
    def test_stream_is_that_of_the_direct_philox_key(self, seed, idx):
        got, want = trajectory_rng(seed, idx), np.random.Generator(np.random.Philox(key=seed | idx << 64))
        assert _state(got) == _state(want)
        assert np.array_equal(got.standard_normal(300), want.standard_normal(300))
        assert got.integers(0, 2**63, 50).tolist() == want.integers(0, 2**63, 50).tolist()
        assert _state(got) == _state(want)

    def test_seed_fills_the_low_key_word(self, case1):
        for seed, idx in ((2**64 - 1, 3), (7, 2**64 - 1), (2**63, 0)):
            st = trajectory_rng(seed, idx).bit_generator.state["state"]
            assert st["key"].tolist() == [seed, idx]
            assert st["counter"].tolist() == [0, 0, 0, 0]
        config = SimConfig(horizon_T=5, n_trajectories=2, master_seed=2**64 - 1)
        assert len(simulate(case1.model, case1.candidate, config).records) == 6
        with pytest.raises(ValueError, match=r"^master_seed must be < 2\*\*64$"):
            replace(config, master_seed=2**64)

    def test_time_accounting_and_gap_range(self, case1):
        config = SimConfig(horizon_T=100, master_seed=3, schedule=JumpSchedule.uniform())
        traj = simulate(case1.model, case1.candidate, config, traj_index=0)
        tau = case1.model.jump.tau
        flows = sum(1 for r in traj.records if r.scenario == "flow")
        assert traj.records[-1].time == pytest.approx(flows * tau)
        # physical gaps between jumps stay within {q1 tau, ..., q2 tau}
        jump_times = [r.time for r in traj.records if r.scenario == "jump"]
        for t0, t1 in zip(jump_times, jump_times[1:]):
            gap = t1 - t0
            assert case1.model.jump.q1 * tau - 1e-12 <= gap <= case1.model.jump.q2 * tau + 1e-12
        # counters never leave range and jumps reset them
        for r in traj.records:
            assert 0 <= r.z <= case1.model.jump.q2
            if r.scenario == "jump":
                assert r.z == 0

    def test_fixed_start_overrides_sampling(self, case1):
        config = SimConfig(
            horizon_T=5, master_seed=3, schedule=JumpSchedule("fixed", (7,)), x0=(1.0,)
        )
        traj = simulate(case1.model, case1.candidate, config, traj_index=0)
        assert traj.records[0].x == (1.0,)

    @pytest.mark.parametrize("x0", [(1.0, 2.0), ()])
    @pytest.mark.parametrize("runs", [1, 8])
    def test_fixed_start_of_wrong_length_rejected(self, case1, x0, runs, blocks_of_8):
        # both engines: simulate itself, and trajectories, which runs a
        # single trajectory on simulate and 8 of them as a block
        config = SimConfig(horizon_T=5, n_trajectories=runs, x0=x0)
        with pytest.raises(ValueError, match=r"x0 needs 1 component\(s\)"):
            simulate(case1.model, case1.candidate, config)
        with pytest.raises(ValueError, match=r"x0 needs 1 component\(s\)"):
            next(trajectories(case1.model, case1.candidate, config))

    def test_case1_trajectories_stay_in_comfort_zone(self, case1):
        acbc = construct_acbc(case1.candidate, case1.model.jump, 0.1, 8.0)
        config = SimConfig(horizon_T=100, master_seed=2025, schedule=JumpSchedule.uniform())
        for idx in range(10):
            traj = simulate(case1.model, case1.candidate, config, acbc=acbc, traj_index=idx)
            xs = [r.x[0] for r in traj.records]
            assert max(xs) < 7.0
            assert traj.first_exceed is None
            assert traj.first_unsafe is None

    def test_schedule_gap_outside_range_rejected(self, case1):
        config = SimConfig(horizon_T=10, master_seed=0, schedule=JumpSchedule("fixed", (9,)))
        with pytest.raises(ValueError, match="outside admissible range"):
            simulate(case1.model, case1.candidate, config, traj_index=0)


class TestTrajectoryCsv:
    def test_header_and_shape(self, case1):
        acbc = construct_acbc(case1.candidate, case1.model.jump, 0.1, 8.0)
        config = SimConfig(horizon_T=10, master_seed=0, schedule=JumpSchedule("fixed", (3,)))
        traj = simulate(case1.model, case1.candidate, config, acbc=acbc, traj_index=0)
        text = trajectory_csv(case1.model, traj)
        lines = text.strip().splitlines()
        assert lines[0] == "k,time,z,scenario,x_1,B_value"
        assert len(lines) == 12  # header + initial record + 10 transitions
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "init"
        assert float(first[5]) >= 0.0

    @pytest.mark.parametrize("two_states", [False, True])
    def test_text_is_what_csv_writer_writes(self, case1, two_states):
        model = _noisy_plane()[0] if two_states else case1.model
        odd = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -5e-324, 1.7976931348623157e308, 0.1)
        records = [
            sim.TransitionRecord(
                k, odd[k - 1] if k else 0.0, k % 8, ("init", FLOW, JUMP)[k % 3],
                tuple(odd[(k + i) % len(odd)] for i in range(model.n)),
                None if k % 4 == 1 else odd[(2 * k) % len(odd)],
            )
            for k in range(len(odd) + 1)
        ]
        traj = sim.Trajectory(tuple(records), None, None)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["k", "time", "z", "scenario"] + [f"x_{i + 1}" for i in range(model.n)] + ["B_value"])
        for r in records:
            b = "" if r.b_value is None else repr(r.b_value)
            writer.writerow([r.k, repr(r.time), r.z, r.scenario] + [repr(v) for v in r.x] + [b])
        assert trajectory_csv(model, traj) == buf.getvalue()
        assert "nan" in buf.getvalue() and "-0.0" in buf.getvalue() and ",\n" in buf.getvalue()


class TestClopperPearson:
    def test_zero_successes(self):
        lo, hi = clopper_pearson(0, 1000)
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.005 ** (1 / 1000), rel=1e-6)

    def test_all_successes(self):
        lo, hi = clopper_pearson(1000, 1000)
        assert hi == 1.0
        assert lo == pytest.approx(0.005 ** (1 / 1000), rel=1e-6)

    def test_interval_contains_point_estimate(self):
        lo, hi = clopper_pearson(37, 500)
        assert lo < 37 / 500 < hi

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 3)

    def test_bitwise_equal_to_beta_ppf(self):
        from scipy.stats import beta

        rng = np.random.default_rng(2024)
        pairs = [(0, 1), (1, 1), (0, 1000), (1000, 1000)]
        for _ in range(500):
            n = int(rng.integers(1, 100_001))
            pairs.append((int(rng.integers(0, n + 1)), n))
        a = 1.0 - 0.99
        for k, n in pairs:
            lo, hi = clopper_pearson(k, n)
            assert lo == (0.0 if k == 0 else float(beta.ppf(a / 2, k, n - k + 1))), (k, n)
            assert hi == (1.0 if k == n else float(beta.ppf(1 - a / 2, k + 1, n - k))), (k, n)


class TestMonteCarlo:
    def test_deterministic_safe_system(self, easy_model, easy_candidate):
        acbc = construct_acbc(easy_candidate, easy_model.jump, 0.1, 8.0)
        config = SimConfig(
            horizon_T=50, n_trajectories=200, master_seed=10, schedule=JumpSchedule.uniform()
        )
        rep = monte_carlo(easy_model, easy_candidate, acbc, config)
        assert rep.p_exceed_hat == 0.0
        assert rep.p_unsafe_hat == 0.0
        assert rep.ci99_exceed[0] == 0.0
        assert rep.ci99_exceed[1] < 0.04
        assert not rep.bound_violated

    def test_case1_consistent_with_bound(self, case1):
        acbc = construct_acbc(case1.candidate, case1.model.jump, 0.1, 8.0)
        config = SimConfig(
            horizon_T=100, n_trajectories=200, master_seed=31, schedule=case1.schedule
        )
        rep = monte_carlo(case1.model, case1.candidate, acbc, config)
        assert rep.p_unsafe_hat <= rep.p_exceed_hat
        assert rep.ci99_exceed[0] <= rep.delta
        assert not rep.bound_violated

    def test_order_independence_of_counts(self, case1):
        acbc = construct_acbc(case1.candidate, case1.model.jump, 0.1, 8.0)
        config = SimConfig(
            horizon_T=20, n_trajectories=30, master_seed=8, schedule=case1.schedule
        )
        rep1 = monte_carlo(case1.model, case1.candidate, acbc, config)
        rep2 = monte_carlo(case1.model, case1.candidate, acbc, config)
        assert rep1 == rep2

    @pytest.mark.parametrize("runs", [1, 40])
    def test_lifted_certificate_for_other_jump_rejected(self, case2, runs):
        # its weights end at q2 = 7, the model's counter runs to 12
        acbc = construct_acbc(case2.candidate, case2.model.jump, 0.1, 8.0)
        model = replace(case2.model, jump=JumpParams(0.1, 1, 12))
        config = SimConfig(horizon_T=20, n_trajectories=runs, schedule=JumpSchedule("fixed", (12,)))
        match = "lifted certificate's jump parameters .* differ from the model's"
        with pytest.raises(ValueError, match=match):
            monte_carlo(model, case2.candidate, acbc, config)
        with pytest.raises(ValueError, match=match):
            next(trajectories(model, case2.candidate, config, acbc))
        with pytest.raises(ValueError, match=match):
            simulate(model, case2.candidate, config, acbc)

    def test_blowups_counted_conservatively(self, case2):
        acbc = construct_acbc(case2.candidate, case2.model.jump, 0.1, 8.0)
        config = SimConfig(
            horizon_T=100, n_trajectories=5, master_seed=0, schedule=JumpSchedule("fixed", (1,))
        )
        rep = monte_carlo(case2.model, case2.candidate, acbc, config)
        assert rep.blowup_count > 0
        assert rep.exceed_count >= rep.blowup_count
        assert rep.unsafe_count <= rep.exceed_count


class TestWeakConvergence:
    def test_ornstein_uhlenbeck_second_moment(self):
        # f1 = -x, sigma = 0.6: E[x(1)^2] = x0^2 e^{-2} + 0.18 (1 - e^{-2})
        m = scalar_model(f1=-X, f2=X, sigma=0.6, rho=0.0, rate=0.0)
        want = 1.0 * math.exp(-2) + 0.18 * (1 - math.exp(-2))
        rng = np.random.default_rng(2718)
        vals = []
        for _ in range(3000):
            x = (1.0,)
            for _ in range(10):
                x = flow_step(m, x, (0.0,), 0.1, 100, *period_noise(m, rng, 0.1, 100))
            vals.append(x[0] ** 2)
        assert float(np.mean(vals)) == pytest.approx(want, rel=0.05)


def _outcome(run):
    try:
        return run()
    except BlowUpError as e:
        return e


def assert_same(model, got, want):
    """Equal trajectories down to the last bit, or equal blow-ups. The CSV
    text holds every record field in ``repr``, which tells -0.0 from 0.0 and
    matches NaN with NaN, where ``==`` on the records would not."""
    if isinstance(want, BlowUpError):
        assert isinstance(got, BlowUpError)
        assert (got.step, str(got)) == (want.step, str(want))
    else:
        assert (got.first_unsafe, got.first_exceed) == (want.first_unsafe, want.first_exceed)
        assert trajectory_csv(model, got) == trajectory_csv(model, want)


def _noisy_plane() -> tuple[SHSModel, CbcCandidate]:
    """Two states, two Brownian motions, two Poisson counters, state-dependent
    diffusion and a noisy controlled jump map."""
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    nu, w = Polynomial.variable("nu"), Polynomial.variable("varsigma")
    const = Polynomial.constant
    model = SHSModel(
        state_vars=("x", "y"), input_vars=("nu",), noise_vars=("varsigma",),
        f1=(y + nu - 0.1 * x**3, -1.0 * x - 0.2 * y),
        sigma=((0.2 * x, const(0.05)), (const(0.0), 0.1 * y + 0.1)),
        rho=((const(0.3), const(0.0)), (const(0.0), -0.2 * y)),
        rates=(1.5, 3.0),
        f2=(0.8 * x + nu + 0.2 * w, y * w),
        noise=NoiseConfig((NoiseMoments.standard_normal(8),)),
        jump=JumpParams(0.1, 1, 7),
        X=IntervalBox({"x": (-3, 3), "y": (-3, 3)}),
        X0=IntervalBox({"x": (0.5, 1.5), "y": (-0.5, 0.5)}),
        Xu=IntervalBox({"x": (1.2, 3), "y": (-3, 3)}),
    )
    cand = CbcCandidate(
        x**2 + y**2, 1.0, 0.5, 0.5, 0.01, 0.3, 1.5,
        (0.1 * x,), (-0.2 * y + 0.1,),
    )
    return model, cand


def _overflowing(kind: str) -> SHSModel:
    """Models whose rows leave the block at chosen places: ``drift`` at
    substep 0, a middle substep and the last one (x' = 60 (x^3 - x) blows up
    once the noise pushes |x| past 1), ``one-coordinate`` a two-state model
    where only the second coordinate does, and ``poisson`` one where only
    the count's update rho(x) dP = 1e200 x^2 dP can overflow."""
    if kind == "one-coordinate":
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        nu, const = Polynomial.variable("nu"), Polynomial.constant
        return SHSModel(
            state_vars=("x", "y"), input_vars=("nu",), noise_vars=("varsigma",),
            f1=(-1.0 * x + nu, 60.0 * (y**3 - y)),
            sigma=((const(0.5), const(0.0)), (const(0.0), const(2.0))),
            rho=((const(0.0),), (const(0.0),)),
            rates=(0.0,),
            f2=(x, y),
            noise=NoiseConfig((NoiseMoments.standard_normal(4),)),
            jump=JumpParams(0.1, 1, 7),
            X=IntervalBox({"x": (-8, 8), "y": (-8, 8)}),
            X0=IntervalBox({"x": (-1.5, 1.5), "y": (-1.5, 1.5)}),
            Xu=IntervalBox({"x": (7, 8), "y": (7, 8)}),
        )
    if kind == "drift":
        return scalar_model(60.0 * (X**3 - X), X, sigma=2.0, rate=0.0, X=(-8, 8), X0=(-1.5, 1.5))
    model = scalar_model(-1.0 * X, X, sigma=0.5, rate=5.0, X=(-8, 8), X0=(-1.5, 1.5))
    return replace(model, rho=((1e200 * X**2,),))


class TestBatchedEngine:
    """The batched engine against the scalar reference ``simulate``."""

    @pytest.mark.parametrize("schedule", ["uniform", "fixed:7", "fixed:1"])
    @pytest.mark.parametrize("case_id", [1, 2, 3])
    def test_bundled_cases_equal_scalar(self, case_id, schedule):
        case = load_case(case_id)
        acbc = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
        n = 200
        config = SimConfig(
            horizon_T=100, n_trajectories=n, master_seed=7,
            schedule=JumpSchedule.parse(schedule),
        )
        batch = _simulate_block(case.model, case.candidate, config, acbc, 0, n, keep=n)
        scalar = [
            _outcome(lambda i=i: simulate(case.model, case.candidate, config, acbc, i))
            for i in range(n)
        ]
        blown = {i for i, t in enumerate(scalar) if isinstance(t, BlowUpError)}
        assert {i for i, t in enumerate(batch) if isinstance(t, BlowUpError)} == blown
        for got, want in zip(batch, scalar):
            assert_same(case.model, got, want)
        # trajectory i does not depend on N or on the rows around it
        for i in sorted({0, 1, n - 1} | set(sorted(blown)[:2])):
            (alone,) = _simulate_block(case.model, case.candidate, config, acbc, i, i + 1, keep=i + 1)
            assert_same(case.model, alone, scalar[i])

    def test_two_states_equal_scalar(self):
        model, cand = _noisy_plane()
        acbc = construct_acbc(cand, model.jump, 0.1, 8.0)
        n = 60
        config = SimConfig(horizon_T=50, n_trajectories=n, master_seed=3)
        batch = _simulate_block(model, cand, config, acbc, 0, n, keep=n)
        for i, got in enumerate(batch):
            assert_same(model, got, _outcome(lambda: simulate(model, cand, config, acbc, i)))
        assert any(t.first_exceed is not None for t in batch)
        assert any(t.first_unsafe is not None for t in batch)
        (alone,) = _simulate_block(model, cand, config, acbc, 17, 18, keep=18)
        assert_same(model, alone, batch[17])

    def test_constant_jump_row_equal_scalar(self):
        # the jump kernel returns a constant row of f2 as one float beside
        # the other rows' columns
        model, cand = _noisy_plane()
        y, w = Polynomial.variable("y"), Polynomial.variable("varsigma")
        model = replace(model, f2=(Polynomial.constant(0.5), y * w))
        acbc = construct_acbc(cand, model.jump, 0.1, 8.0)
        n = 24
        config = SimConfig(horizon_T=30, n_trajectories=n, master_seed=5)
        batch = _simulate_block(model, cand, config, acbc, 0, n, keep=n)
        for i, got in enumerate(batch):
            assert_same(model, got, _outcome(lambda: simulate(model, cand, config, acbc, i)))

    def test_block_without_blow_up_generates_no_scalar_flow(self, case1, blocks_of_8):
        # the scalar flow kernel is needed only to name a blow-up's substep
        model = SHSModel.from_dict(case1.model.to_dict())
        config = SimConfig(horizon_T=30, n_trajectories=8, master_seed=4)
        runs = list(trajectories(model, case1.candidate, config))
        assert all(isinstance(t, sim.Trajectory) for t in runs)
        assert "block_flow" in vars(model) and "jump_map" in vars(model)
        assert "scalar_flow" not in vars(model)

    @pytest.mark.parametrize("kind", ["drift", "one-coordinate", "poisson"])
    def test_blow_ups_equal_scalar(self, case1, kind):
        # the block checks finiteness once per period and re-runs the
        # failed rows on the scalar kernel for the substep of the error
        model = _overflowing(kind)
        zero = (Polynomial.constant(0.0),)
        ctrl = replace(case1.candidate, nu_flow=zero, nu_jump=zero)
        n = 64
        config = SimConfig(horizon_T=6, n_trajectories=n, master_seed=2, substeps_per_tau=10)
        batch = _simulate_block(model, ctrl, config, None, 0, n, keep=n)
        scalar = [_outcome(lambda i=i: simulate(model, ctrl, config, traj_index=i)) for i in range(n)]
        # the first rows again, one by one on the scalar path
        few = replace(config, n_trajectories=8)
        alone = list(trajectories(model, ctrl, few, keep=8))
        for got, want in zip(batch + alone, scalar + scalar[:8], strict=True):
            assert_same(model, got, want)
            # an error holds no frames, and with them the run's arrays
            assert not isinstance(got, BlowUpError) or got.__traceback__ is None
        # rows that fail at the first, a middle and the last substep of a
        # period, among rows that never fail
        steps = {t.step for t in scalar if isinstance(t, BlowUpError)}
        last = config.substeps_per_tau - 1
        assert {0, last} <= steps and steps - {0, last}
        assert any(isinstance(t, sim.Trajectory) for t in scalar)

    def test_blocks_and_kept_trajectories(self, case3, monkeypatch):
        # blocks of 9 leave a tail of 2, which runs on the scalar path
        acbc = construct_acbc(case3.candidate, case3.model.jump, case3.eps1, case3.eps2)
        n = 38
        config = SimConfig(
            horizon_T=100, n_trajectories=n, master_seed=7, schedule=JumpSchedule.uniform()
        )
        whole = _simulate_block(case3.model, case3.candidate, config, acbc, 0, n, keep=n)
        assert any(isinstance(t, BlowUpError) for t in whole)
        monkeypatch.setattr(sim, "BLOCK_SIZE", 9)
        monkeypatch.setattr(sim, "BATCH_MIN", 3)
        blocked = list(trajectories(case3.model, case3.candidate, config, acbc, keep=n))
        for got, want in zip(blocked, whole, strict=True):
            assert_same(case3.model, got, want)
        rep = monte_carlo(case3.model, case3.candidate, acbc, config, keep=5)
        assert len(rep.kept) == 5
        for got, want in zip(rep.kept, whole):
            assert_same(case3.model, got, want)
        # without keep only the first-exceed and first-unsafe indices remain
        bare = trajectories(case3.model, case3.candidate, config, acbc)
        for got, want in zip(bare, whole, strict=True):
            if not isinstance(want, BlowUpError):
                want = replace(want, records=())
            assert_same(case3.model, got, want)

    def test_nan_certificate_value_equal_scalar(self, case3, windows_of_4):
        # at 1 substep, trajectory 5 reaches x = 2.8e204 and ends on B = NaN;
        # the 64 transitions fill 16 windows exactly
        acbc = construct_acbc(case3.candidate, case3.model.jump, case3.eps1, case3.eps2)
        n = 30
        config = SimConfig(
            horizon_T=63, n_trajectories=n, master_seed=3, substeps_per_tau=1,
            schedule=JumpSchedule.parse("fixed:7"),
        )
        batch = _simulate_block(case3.model, case3.candidate, config, acbc, 0, n, keep=n)
        for i, got in enumerate(batch):
            want = _outcome(lambda: simulate(case3.model, case3.candidate, config, acbc, i))
            assert_same(case3.model, got, want)
        assert math.isnan(batch[5].records[-1].b_value)

    @pytest.mark.parametrize("case_id", [1, 2, 3])
    def test_small_windows_equal_scalar(self, case_id, windows_of_4):
        case = load_case(case_id)
        acbc = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
        n = 40
        config = SimConfig(
            horizon_T=case.horizon, n_trajectories=n, master_seed=7, schedule=case.schedule
        )
        batch = _simulate_block(case.model, case.candidate, config, acbc, 0, n, keep=n)
        for i, got in enumerate(batch):
            assert_same(case.model, got, _outcome(lambda: simulate(case.model, case.candidate, config, acbc, i)))

    def test_blow_ups_inside_windows_equal_scalar(self, windows_of_4):
        # rows leave the block at transitions inside a window, among rows
        # that exceed the level x^2 >= 0.25 and stay
        model = _overflowing("drift")
        zero = (Polynomial.constant(0.0),)
        ctrl = CbcCandidate(X**2, 1.0, 0.5, 0.5, 0.01, 0.1, 0.25, zero, zero)
        acbc = construct_acbc(ctrl, model.jump, 0.1, 8.0)
        n = 64
        config = SimConfig(horizon_T=13, n_trajectories=n, master_seed=2, substeps_per_tau=10)
        batch = _simulate_block(model, ctrl, config, acbc, 0, n, keep=n)
        scalar = [_outcome(lambda i=i: simulate(model, ctrl, config, acbc, i)) for i in range(n)]
        for got, want in zip(batch, scalar, strict=True):
            assert_same(model, got, want)
        ends = {
            next(
                k for k in range(config.horizon_T + 1)
                if isinstance(_outcome(lambda: simulate(model, ctrl, replace(config, horizon_T=k), acbc, i)), BlowUpError)
            )
            for i, t in enumerate(scalar) if isinstance(t, BlowUpError)
        }
        assert {k % 4 for k in ends} & {1, 2}
        assert any(isinstance(t, sim.Trajectory) and t.first_exceed for t in scalar)

    def test_first_exceedance_at_a_window_edge(self, case2, monkeypatch):
        acbc = construct_acbc(case2.candidate, case2.model.jump, case2.eps1, case2.eps2)
        n = 24
        config = SimConfig(horizon_T=100, n_trajectories=n, master_seed=7, schedule=case2.schedule)
        scalar = [_outcome(lambda i=i: simulate(case2.model, case2.candidate, config, acbc, i)) for i in range(n)]
        k0 = max(t.first_exceed for t in scalar if isinstance(t, sim.Trajectory) and t.first_exceed)
        assert k0 > 2
        # k0 first in the second window, then last in the first one
        for window in (k0, k0 + 1):
            monkeypatch.setattr(sim, "WINDOW", window)
            batch = _simulate_block(case2.model, case2.candidate, config, acbc, 0, n, keep=n)
            for got, want in zip(batch, scalar, strict=True):
                assert_same(case2.model, got, want)

    def test_buffers_do_not_grow_with_the_horizon(self, case1, windows_of_4):
        # a history of every transition would hold T x N states and counters;
        # tracemalloc slows the block many times over, so the horizon is
        # short and the window small: at T = 400 it fills 100 times
        import tracemalloc

        acbc = construct_acbc(case1.candidate, case1.model.jump, case1.eps1, case1.eps2)
        n = 200
        peaks = []
        for T in (20, 400):
            config = SimConfig(horizon_T=T, n_trajectories=n, master_seed=3, substeps_per_tau=1)
            tracemalloc.start()
            try:
                runs = _simulate_block(case1.model, case1.candidate, config, acbc, 0, n, keep=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(isinstance(t, sim.Trajectory) for t in runs)
        # 400 x 200 states alone are 640 kB
        assert peaks[1] - peaks[0] < 100_000

    def test_nan_certificate_value_counts_as_exceedance(self):
        # x^4 and x^5 both overflow at x = 1e80, so B = x^4 - x^5 is inf - inf
        m = scalar_model(f1=0.0 * X, f2=X, sigma=0.0, rho=0.0, rate=0.0, X=(0.0, 1e81))
        cand = CbcCandidate(
            X**4 - X**5, 1.0, 0.5, 0.5, 0.01, 0.3, 60.0,
            (Polynomial.constant(0.0),), (Polynomial.constant(0.0),),
        )
        acbc = construct_acbc(cand, m.jump, 0.1, 8.0)
        config = SimConfig(horizon_T=5, n_trajectories=sim.BATCH_MIN, x0=(1e80,))
        traj = simulate(m, cand, config, acbc=acbc)
        assert math.isnan(traj.records[0].b_value)
        assert traj.first_exceed == 0
        rep = monte_carlo(m, cand, acbc, config)
        assert rep.blowup_count == 0
        assert rep.exceed_count == config.n_trajectories


def assert_outcome_rule(model, acbc, traj):
    """Recompute from the records alone, on Python floats, what each
    record and the trajectory state: b = beta(z) Bbar(x) bit for bit (NaN
    as NaN), the first k with ``not b < eta``, the first k with x in Xu,
    the time as the running sum of tau over the flows, and the scenario."""
    sv = model.state_vars
    bfun = acbc.base.Bbar.compiled(sv)
    exceed = unsafe = None
    time = 0.0
    for r in traj.records:
        b = acbc.weights[r.z] * bfun(r.x)
        assert repr(r.b_value) == repr(b), r.k
        if exceed is None and not b < acbc.eta:
            exceed = r.k
        if unsafe is None and all(lo <= r.x[sv.index(v)] <= hi for v, (lo, hi) in model.Xu.intervals.items()):
            unsafe = r.k
        if r.scenario == FLOW:
            time += model.jump.tau
        assert r.scenario == ("init" if r.k == 0 else FLOW if r.z else JUMP)
        assert repr(r.time) == repr(time)
    assert (traj.first_exceed, traj.first_unsafe) == (exceed, unsafe)


class TestOutcomeRule:
    """What both engines decide from the stepped states, against a plain
    recomputation from the records."""

    @pytest.mark.parametrize("case_id", [1, 2, 3])
    def test_bundled_cases(self, case_id):
        case = load_case(case_id)
        acbc = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
        n = sim.BATCH_MIN
        config = SimConfig(horizon_T=100, n_trajectories=n, master_seed=7, schedule=case.schedule)
        batch = _simulate_block(case.model, case.candidate, config, acbc, 0, n, keep=n)
        scalar = [_outcome(lambda i=i: simulate(case.model, case.candidate, config, acbc, i)) for i in range(4)]
        runs = [t for t in batch + scalar if isinstance(t, sim.Trajectory)]
        assert len(runs) > n // 2
        for traj in runs:
            assert len(traj.records) == config.horizon_T + 1
            assert_outcome_rule(case.model, acbc, traj)
        if case_id == 2:
            assert any(t.first_exceed is not None for t in runs)

    def test_nan_certificate_value(self):
        # the model and certificate of test_nan_certificate_value_counts_as_exceedance
        m = scalar_model(f1=0.0 * X, f2=X, sigma=0.0, rho=0.0, rate=0.0, X=(0.0, 1e81))
        cand = CbcCandidate(
            X**4 - X**5, 1.0, 0.5, 0.5, 0.01, 0.3, 60.0,
            (Polynomial.constant(0.0),), (Polynomial.constant(0.0),),
        )
        acbc = construct_acbc(cand, m.jump, 0.1, 8.0)
        n = sim.BATCH_MIN
        config = SimConfig(horizon_T=5, n_trajectories=n, x0=(1e80,))
        runs = [simulate(m, cand, config, acbc=acbc)]
        runs += _simulate_block(m, cand, config, acbc, 0, n, keep=n)
        for traj in runs:
            assert math.isnan(traj.records[0].b_value)
            assert_outcome_rule(m, acbc, traj)

    def test_simulate_steps_through_the_module_attributes(self, case2, monkeypatch):
        # the benchmark traces sim.flow_step and sim.jump_step by replacing
        # them on the module: each flow and each jump must call them once
        calls = {FLOW: 0, JUMP: 0}

        def counting(scenario, step):
            def counted(*args, **kwargs):
                calls[scenario] += 1
                return step(*args, **kwargs)

            return counted

        monkeypatch.setattr(sim, "flow_step", counting(FLOW, sim.flow_step))
        monkeypatch.setattr(sim, "jump_step", counting(JUMP, sim.jump_step))
        acbc = construct_acbc(case2.candidate, case2.model.jump, case2.eps1, case2.eps2)
        config = SimConfig(horizon_T=100, master_seed=7, schedule=JumpSchedule.parse("fixed:7"))
        scenarios = []
        for idx in range(3):
            traj = simulate(case2.model, case2.candidate, config, acbc, idx)
            scenarios += [r.scenario for r in traj.records]
        assert calls == {FLOW: scenarios.count(FLOW), JUMP: scenarios.count(JUMP)}
        assert calls[JUMP] > 0

    def test_small_block_builds_records_for_kept_rows_only(self, case2, monkeypatch):
        acbc = construct_acbc(case2.candidate, case2.model.jump, case2.eps1, case2.eps2)
        config = SimConfig(horizon_T=100, n_trajectories=5, master_seed=7, schedule=case2.schedule)
        want = [simulate(case2.model, case2.candidate, config, acbc, idx) for idx in range(5)]
        built, record = [], sim.TransitionRecord

        def counted(*args):
            built.append(args[0])
            return record(*args)

        monkeypatch.setattr(sim, "TransitionRecord", counted)
        got = list(trajectories(case2.model, case2.candidate, config, acbc, keep=2))
        assert len(built) == 2 * (config.horizon_T + 1)
        assert [t.records for t in got] == [want[0].records, want[1].records, (), (), ()]
        assert [(t.first_exceed, t.first_unsafe) for t in got] == [
            (t.first_exceed, t.first_unsafe) for t in want
        ]
        assert any(t.first_exceed is not None for t in got[2:])


def _flows_before_blow_up(model, cand, config, idx) -> int:
    """Flows trajectory ``idx`` completes before its state stops being
    finite: the flows of its longest horizon that does not blow up, which
    is a prefix of every longer one."""
    lo, hi = 0, config.horizon_T
    while lo < hi:
        mid = (lo + hi + 1) // 2
        run = _outcome(lambda: simulate(model, cand, replace(config, horizon_T=mid), traj_index=idx))
        lo, hi = (mid, hi) if isinstance(run, sim.Trajectory) else (lo, mid - 1)
    traj = simulate(model, cand, replace(config, horizon_T=lo), traj_index=idx)
    return sum(r.scenario == FLOW for r in traj.records)


class TestStreamLayout:
    """One Philox stream per trajectory, read in the layout of the ``sim``
    docstring: X0, jump chunk 0, then flow and jump chunks as reached."""

    @pytest.mark.parametrize("schedule", ["fixed:3", "cyclic:2,5,1", "uniform", "fixed:1"])
    @pytest.mark.parametrize("substeps", [20, 2000])
    def test_engines_equal_at_chunk_edges(self, schedule, substeps):
        C, Cj = sim._chunk_periods(substeps), sim.JUMP_CHUNK
        assert C == (64 if substeps == 20 else 1) and Cj == 64
        model, cand = _noisy_plane()
        acbc = construct_acbc(cand, model.jump, 0.1, 8.0)
        n = 8
        horizons = [C - 1, C, C + 1, 2 * C + 3]
        if schedule == "fixed:1" and substeps == 20:
            # flows and jumps alternate, so these end after Cj - 1, Cj and
            # Cj + 1 jumps; at 2000 substeps they would take seconds, and
            # the jump chunk does not depend on the substeps
            horizons += [2 * Cj - 2, 2 * Cj, 2 * Cj + 2]
        for T in horizons:
            config = SimConfig(
                horizon_T=T, n_trajectories=n, master_seed=5, substeps_per_tau=substeps,
                schedule=JumpSchedule.parse(schedule),
            )
            batch = _simulate_block(model, cand, config, acbc, 0, n, keep=n)
            for i, got in enumerate(batch):
                assert_same(model, got, _outcome(lambda: simulate(model, cand, config, acbc, i)))

    def test_blow_up_in_second_chunk_leaves_neighbours_alone(self, case1):
        # x' = 60 (x^3 - x) holds |x| < 1 until the noise pushes it past 1
        model = scalar_model(60.0 * (X**3 - X), X, sigma=2.0, rate=0.0, X=(-8, 8), X0=(-0.5, 0.5))
        zero = (Polynomial.constant(0.0),)
        ctrl = replace(case1.candidate, nu_flow=zero, nu_jump=zero)
        C, n = sim._chunk_periods(20), 16
        config = SimConfig(horizon_T=2 * C + 3, n_trajectories=n, master_seed=0)
        batch = _simulate_block(model, ctrl, config, None, 0, n, keep=n)
        scalar = [_outcome(lambda i=i: simulate(model, ctrl, config, traj_index=i)) for i in range(n)]
        for got, want in zip(batch, scalar, strict=True):
            assert_same(model, got, want)
        survivors = [i for i, t in enumerate(scalar) if isinstance(t, sim.Trajectory)]
        late = [
            i for i, t in enumerate(scalar)
            if isinstance(t, BlowUpError) and _flows_before_blow_up(model, ctrl, config, i) >= C
        ]
        assert late
        i = late[0]
        # the nearest rows on either side that run to the horizon
        for j in (max(j for j in survivors if j < i), min(j for j in survivors if j > i)):
            assert isinstance(batch[j], sim.Trajectory) and len(batch[j].records) == 2 * C + 4
            (alone,) = _simulate_block(model, ctrl, config, None, j, j + 1, keep=j + 1)
            assert_same(model, alone, batch[j])

    def test_replay_by_hand(self):
        # the documented order: X0 and jump chunk 0 (gaps, then W); then a
        # flow chunk (dW, then per channel a total count and its substep
        # indices) at every C-th flow and a jump chunk after every Cj-th jump
        model, cand = _noisy_plane()
        S, idx = 20, 3
        C, Cj = sim._chunk_periods(S), sim.JUMP_CHUNK
        config = SimConfig(horizon_T=360, master_seed=11)
        h = model.jump.tau / S
        jp = model.jump
        nu_flow, nu_jump = (p.compiled(model.state_vars) for p in (cand.nu_flow[0], cand.nu_jump[0]))
        rng = trajectory_rng(11, idx)

        def jump_chunk():
            return rng.integers(jp.q1, jp.q2 + 1, Cj).tolist(), rng.standard_normal((Cj, 1))

        def flow_chunk():
            dW = rng.standard_normal((C, S, 2))
            dP = np.zeros((C * S, 2), dtype=np.int64)
            for j, rate in enumerate(model.rates):
                for cell in rng.integers(0, C * S, rng.poisson(rate * h * C * S)):
                    dP[cell, j] += 1
            return dW, dP.reshape(C, S, 2)

        x = tuple(float(rng.uniform(lo, hi)) for lo, hi in model.X0.intervals.values())
        gaps, W = jump_chunk()
        z = flows = jumps = 0
        want = [(0, "init", 0, x)]
        for k in range(1, config.horizon_T + 1):
            if z == gaps[jumps % Cj]:
                x = model.jump_map(list(x), [nu_jump(x)], W[jumps % Cj].tolist())
                z, jumps = 0, jumps + 1
                if jumps % Cj == 0:
                    gaps, W = jump_chunk()
                want.append((k, "jump", z, x))
            else:
                if flows % C == 0:
                    dW, dP = flow_chunk()
                e = flows % C
                x = model.scalar_flow(list(x), [nu_flow(x)], h, math.sqrt(h), dW[e].tolist(), dP[e].tolist(), S)
                z, flows = z + 1, flows + 1
                want.append((k, "flow", z, x))
        assert flows > 4 * C and jumps > Cj
        traj = simulate(model, cand, config, traj_index=idx)
        assert [(r.k, r.scenario, r.z, r.x) for r in traj.records] == want
        # a shorter horizon reads the same stream, so it gives a prefix
        short = simulate(model, cand, replace(config, horizon_T=C - 1), traj_index=idx)
        assert short.records == traj.records[:C]

    @pytest.mark.parametrize("block", [False, True])
    def test_draws_one_chunk_of_each_kind(self, monkeypatch, block):
        # fixed:1 over T = 100 makes 50 flows and 50 jumps: the stream ends
        # after X0, jump chunk 0 (W only: a fixed schedule draws no gaps)
        # and flow chunk 0, whichever engine reads it
        model, cand = _noisy_plane()
        S, n = 20, 8
        C, Cj = sim._chunk_periods(S), sim.JUMP_CHUNK
        config = SimConfig(
            horizon_T=100, n_trajectories=n, master_seed=13, schedule=JumpSchedule("fixed", (1,))
        )
        streams = {}

        def recording(master_seed, traj_index):
            streams[traj_index] = trajectory_rng(master_seed, traj_index)
            return streams[traj_index]

        monkeypatch.setattr(sim, "trajectory_rng", recording)
        if block:
            runs = _simulate_block(model, cand, config, None, 0, n, keep=n)
        else:
            runs = [simulate(model, cand, config, traj_index=i) for i in range(n)]
        assert all(isinstance(t, sim.Trajectory) and len(t.records) == 101 for t in runs)
        h = model.jump.tau / S
        for i in range(n):
            rng = trajectory_rng(13, i)
            for lo, hi in model.X0.intervals.values():
                rng.uniform(lo, hi)
            rng.standard_normal((Cj, 1))
            rng.standard_normal((C, S, 2))
            for rate in model.rates:
                rng.integers(0, C * S, rng.poisson(rate * h * C * S))
            assert _state(streams[i]) == _state(rng)

    def test_split_poisson_counts_have_poisson_frequencies(self):
        # each cell of a flow chunk's dP is Poisson(rate h); 1000 chunks of
        # 1280 cells from one stream, seed chosen once; every bound is 5
        # binomial (or sample) standard deviations
        rng = trajectory_rng(2024, 0)
        C, S = sim._chunk_periods(20), 20
        cells = 1000 * C * S
        dW, dP = np.empty((C, S, 0)), np.empty((C, S, 1), dtype=np.int64)
        for mu in (0.0025, 0.3):
            counts = np.empty((1000, C * S), dtype=np.int64)
            for chunk in counts:
                sim._draw_flow_chunk(rng, [mu * C * S], dW, dP)
                chunk[:] = dP.reshape(-1)
            assert abs(counts.mean() - mu) <= 5 * math.sqrt(mu / cells)
            assert abs(counts.var() - mu) <= 5 * math.sqrt((mu + 2 * mu**2) / cells)
            for k in (0, 1, 2):
                p = math.exp(-mu) * mu**k / math.factorial(k)
                assert abs(np.count_nonzero(counts == k) - cells * p) <= 5 * math.sqrt(cells * p * (1 - p))
            # and every substep of the chunk alike: each cell's total over
            # the 1000 chunks is Poisson(1000 mu)
            assert np.abs(counts.sum(axis=0) - 1000 * mu).max() <= 5 * math.sqrt(1000 * mu) + 1


def _state(rng: np.random.Generator) -> tuple:
    """A Philox generator's whole state, as plain values that compare with ==."""
    st = rng.bit_generator.state
    words = (st["state"]["counter"], st["state"]["key"], st["buffer"])
    return tuple(w.tolist() for w in words) + (st["buffer_pos"], st["has_uint32"], st["uinteger"])


# Variable names that would break or subvert generated code if they reached
# it; their sort order is that of the plain names they replace, so every
# polynomial keeps its variable order and both models do the same arithmetic.
HOSTILE = {
    "nu": "1x",
    "varsigma": "__import__",
    "x": "x); import os #",
    "y": "y'] or __import__('os') #",
}


def _renamed(doc, names):
    if isinstance(doc, dict):
        return {names.get(k, k): _renamed(v, names) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_renamed(v, names) for v in doc]
    return names.get(doc, doc) if isinstance(doc, str) else doc


class TestGeneratedCode:
    def test_hostile_names_simulate_like_plain_ones(self, monkeypatch):
        from shscert import model as model_module
        from shscert import poly

        assert sorted(HOSTILE) == sorted(HOSTILE, key=HOSTILE.get)
        sources = []

        def recording(source, namespace={}, name=None):
            sources.append(source)
            return poly_generated(source, namespace, name)

        poly_generated = poly.generated
        monkeypatch.setattr(poly, "generated", recording)
        monkeypatch.setattr(model_module, "generated", recording)

        # both through the codec, so that only the names differ
        model, cand = _noisy_plane()
        plain = SHSModel.from_dict(model.to_dict())
        plain_cand = CbcCandidate.from_dict(cand.to_dict())
        hostile = SHSModel.from_dict(_renamed(model.to_dict(), HOSTILE))
        hostile_cand = CbcCandidate.from_dict(_renamed(cand.to_dict(), HOSTILE))
        assert hostile.state_vars == (HOSTILE["x"], HOSTILE["y"])
        runs = {}
        pairs = {"plain": (plain, plain_cand), "hostile": (hostile, hostile_cand)}
        for key, (m, c) in pairs.items():
            acbc = construct_acbc(c, m.jump, 0.1, 8.0)
            config = SimConfig(horizon_T=30, n_trajectories=sim.BATCH_MIN, master_seed=4)
            scalar = [_outcome(lambda i=i: simulate(m, c, config, acbc, i)) for i in range(3)]
            runs[key] = scalar + list(trajectories(m, c, config, acbc, keep=config.n_trajectories))
        for got, want in zip(runs["hostile"], runs["plain"], strict=True):
            assert_same(plain, got, want)
        assert any(isinstance(t, sim.Trajectory) and len(t.records) == 31 for t in runs["plain"])
        assert sources
        for source in sources:
            for name in HOSTILE.values():
                assert name not in source

    def test_unused_variables_simulate_like_the_plain_model(self, blocks_of_8):
        # a state-free sigma entry, the certificate and a controller that
        # list variables with exponent 0 in every term, one of them no
        # variable of the model at all
        model, cand = _noisy_plane()
        idle = Polynomial(("x", "y"), {(0, 0): 0.05})
        idle_model = replace(model, sigma=((model.sigma[0][0], idle), model.sigma[1]))
        idle_cand = replace(
            cand,
            Bbar=Polynomial(("v", "x", "y"), {(0, 2, 0): 1.0, (0, 0, 2): 1.0}),
            nu_flow=(Polynomial(("x", "v"), {(1, 0): 0.1}),),
        )
        config = SimConfig(horizon_T=30, n_trajectories=8, master_seed=4)
        texts = []
        for m, c in ((model, cand), (idle_model, idle_cand)):
            acbc = construct_acbc(c, m.jump, 0.1, 8.0)
            scalar = [simulate(m, c, config, acbc, i) for i in range(config.n_trajectories)]
            batch = list(trajectories(m, c, config, acbc, keep=config.n_trajectories))
            for got, want in zip(batch, scalar, strict=True):
                assert_same(m, got, want)
            texts.append("".join(trajectory_csv(m, t) for t in scalar))
        assert texts[1] == texts[0]
        # the digest of these trajectories under the stream layout of ``sim``
        digest = hashlib.sha256(texts[1].encode()).hexdigest()
        assert digest == "6ddbd0e7308f21ed59cda87a9d3c537e54104601a793d567d1399d5ffcf352ba"

    def test_codec_round_trip_simulates_like_the_model(self):
        # the codec keeps each polynomial's term order, and with it the
        # order in which the kernels add the terms
        model, cand = _noisy_plane()
        loaded = SHSModel.from_dict(json.loads(model.to_json()))
        config = SimConfig(horizon_T=30, n_trajectories=20, master_seed=4)
        acbc = construct_acbc(cand, model.jump, 0.1, 8.0)
        texts = [
            "".join(trajectory_csv(m, t) for t in trajectories(m, cand, config, acbc, keep=20))
            for m in (model, loaded)
        ]
        assert texts[1] == texts[0]

    def test_products_free_of_the_state_are_formed_once_per_period(self, monkeypatch):
        # input-only drift terms of degree 2 (2 nu + nu nu, mu nu), a term
        # led by an input (mu x), two inputs and a state-free rho: no input
        # is read inside the substep loop, and every bit stays that of the
        # plain expressions evaluated substep by substep
        from shscert import model as model_module

        sources = []

        def recording(source, namespace={}, name=None):
            sources.append(source)
            return plain_generated(source, namespace, name)

        plain_generated = model_module.generated
        monkeypatch.setattr(model_module, "generated", recording)
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        mu, nu, w = Polynomial.variable("mu"), Polynomial.variable("nu"), Polynomial.variable("varsigma")
        const = Polynomial.constant
        model = SHSModel(
            state_vars=("x", "y"), input_vars=("mu", "nu"), noise_vars=("varsigma",),
            f1=(2.0 * nu + nu * nu + mu * x - 0.1 * x**3, -1.0 * x - 0.2 * y + 0.5 * mu * nu),
            sigma=((const(0.2), 0.1 * x), (const(0.0), const(0.1))),
            rho=((const(0.3),), (-0.2 * y,)),
            rates=(3.0,),
            f2=(0.8 * x + nu + 0.2 * w, y + mu * w),
            noise=NoiseConfig((NoiseMoments.standard_normal(8),)),
            jump=JumpParams(0.1, 1, 7),
            X=IntervalBox({"x": (-3, 3), "y": (-3, 3)}),
            X0=IntervalBox({"x": (0.5, 1.5), "y": (-0.5, 0.5)}),
            Xu=IntervalBox({"x": (1.2, 3), "y": (-3, 3)}),
        )
        cand = CbcCandidate(
            x**2 + y**2, 1.0, 0.5, 0.5, 0.01, 0.3, 1.5,
            (0.1 * x, -0.2 * y + 0.1), (0.3 * y, const(0.5)),
        )
        acbc = construct_acbc(cand, model.jump, 0.1, 8.0)
        n = 30
        config = SimConfig(horizon_T=40, n_trajectories=n, master_seed=6)
        batch = _simulate_block(model, cand, config, acbc, 0, n, keep=n)
        for i, got in enumerate(batch):
            assert_same(model, got, _outcome(lambda: simulate(model, cand, config, acbc, i)))
        flows = [source for source in sources if source.startswith("def flow")]
        assert len(flows) == 2
        for source in flows:
            head, loop = source.split("for s in range(substeps):")
            assert "u0" in head and "u1" in head
            assert "u0" not in loop and "u1" not in loop
        # one period by hand on the plain expressions
        S, h = 20, 0.1 / 20
        sqh = math.sqrt(h)
        rng = np.random.default_rng(6)
        dW, dP = rng.standard_normal((S, 2)), rng.poisson(0.5, (S, 1))
        f1 = [p.compiled(model.state_vars + model.input_vars) for p in model.f1]
        sig = [[p.compiled(model.state_vars) for p in row] for row in model.sigma]
        rho = [row[0].compiled(model.state_vars) for row in model.rho]
        u = (0.3, -1.7)
        xs = start = (0.9, -0.4)
        for s in range(S):
            ys = [
                xs[i] + h * f1[i]((*xs, *u)) + sig[i][0](xs) * sqh * dW[s, 0] + sig[i][1](xs) * sqh * dW[s, 1]
                for i in range(2)
            ]
            if dP[s, 0]:
                ys = [ys[i] + rho[i](xs) * dP[s, 0] for i in range(2)]
            xs = tuple(ys)
        assert model.scalar_flow(list(start), list(u), h, sqh, dW.tolist(), dP.tolist(), S) == xs
        cols = model.block_flow(
            [np.array([v]) for v in start], [np.array([v]) for v in u], h, sqh, dW[:, :, None], dP[:, :, None], S
        )
        assert tuple(float(c[0]) for c in cols) == xs

    def test_flow_kernel_takes_a_long_drift(self):
        # 3000 terms, past the nesting a single expression allows
        rng = np.random.default_rng(5)
        terms = {
            (i, j): float(rng.normal()) / math.factorial(i + j)
            for i in range(60)
            for j in range(50)
        }
        f1 = Polynomial(("x", "nu"), terms)
        model = scalar_model(f1, X, sigma=0.0, rate=0.0)
        fn = f1.compiled(("x", "nu"))
        x, h = 0.5, 0.1 / 4
        for _ in range(4):
            x = x + h * fn((x, 0.2))
        assert flow_step(model, (0.5,), (0.2,), 0.1, 4, *period_noise(model, np.random.default_rng(0), 0.1, 4)) == (x,)


def _block_period(model, x, u, tau, substeps, rng, rate_scale=1.0):
    """One period of N rows on ``block_flow`` and, row by row, on
    ``scalar_flow``: (block columns, scalar rows). ``u`` is a list of
    columns or floats; the counts are Poisson of mean rate_scale * rate h."""
    N = len(x[0])
    h = tau / substeps
    dW = rng.standard_normal((substeps, model.brownian_dim, N))
    dP = rng.poisson(rate_scale * np.asarray(model.rates)[None, :, None] * h, (substeps, model.poisson_dim, N))
    cols = model.block_flow(x, u, h, math.sqrt(h), dW, dP, substeps)
    rows = [
        model.scalar_flow(
            [float(c[row]) for c in x], [float(np.broadcast_to(v, N)[row]) for v in u], h, math.sqrt(h),
            dW[:, :, row].tolist(), dP[:, :, row].tolist(), substeps,
        )
        for row in range(N)
    ]
    return cols, rows


def _assert_rows_equal(cols, rows):
    """Block columns equal the scalar rows bit for bit (NaN matching NaN)."""
    got = np.array([c.tolist() for c in cols]).T
    assert got.shape == (len(rows), len(rows[0]))
    assert got.tobytes() == np.array(rows).tobytes()


class TestBlockKernel:
    """``SHSModel.block_flow``, the in-place kernel lowered from the scalar
    kernel's expressions, against ``scalar_flow`` row by row."""

    def test_two_states_with_a_float_input_equal_scalar(self):
        # state-dependent sigma and rho, two Brownian motions and two
        # Poisson channels, under a constant controller's float; counts ten
        # times the model's rates, so that most substeps count somewhere
        model, _ = _noisy_plane()
        rng = np.random.default_rng(11)
        x = [rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, 40)]
        for u in ([0.3], [rng.uniform(-1.0, 1.0, 40)]):
            cols, rows = _block_period(model, x, u, 0.1, 20, rng, rate_scale=10.0)
            _assert_rows_equal(cols, rows)
        assert any(r[1] != x[1][i] for i, r in enumerate(rows))

    def test_long_drift_equals_scalar(self):
        # 3000 terms, split by _chain into pieces of an accumulator
        rng = np.random.default_rng(5)
        terms = {(i, j): float(rng.normal()) / math.factorial(i + j) for i in range(60) for j in range(50)}
        model = scalar_model(Polynomial(("x", "nu"), terms), X, sigma=0.3, rate=2.0)
        assert len(terms) > poly.CHAIN_LEN
        x = [rng.uniform(0.0, 1.0, 16)]
        cols, rows = _block_period(model, x, [0.2], 0.1, 4, rng)
        _assert_rows_equal(cols, rows)

    def test_inputs_are_left_unchanged(self):
        model, _ = _noisy_plane()
        rng = np.random.default_rng(12)
        x = [rng.uniform(-1.5, 1.5, 24), rng.uniform(-1.5, 1.5, 24)]
        u = [rng.uniform(-1.0, 1.0, 24)]
        h = 0.1 / 20
        dW = rng.standard_normal((20, 2, 24))
        dP = rng.poisson(0.5, (20, 2, 24))
        before = [a.copy() for a in (*x, *u, dW, dP)]
        for _ in range(3):
            cols = model.block_flow(x, u, h, math.sqrt(h), dW, dP, 20)
            assert not any(np.shares_memory(c, a) for c in cols for a in (*x, *u))
        for a, b in zip((*x, *u, dW, dP), before, strict=True):
            assert a.tobytes() == b.tobytes()
        # the columns a call returns are its own: the next call, fed with
        # them, leaves them as they were
        again = [c.copy() for c in cols]
        model.block_flow(cols, u, h, math.sqrt(h), dW, dP, 20)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cols, again))

    def test_calls_with_other_rows_steps_or_substeps_get_fresh_buffers(self):
        model, _ = _noisy_plane()
        rng = np.random.default_rng(13)
        for N, tau, substeps in [(5, 0.1, 20), (7, 0.1, 20), (7, 0.2, 20), (7, 0.1, 3), (5, 0.1, 20), (1, 0.1, 20)]:
            x = [rng.uniform(-1.5, 1.5, N), rng.uniform(-1.5, 1.5, N)]
            cols, rows = _block_period(model, x, [rng.uniform(-1.0, 1.0, N)], tau, substeps, rng, rate_scale=10.0)
            _assert_rows_equal(cols, rows)

    @pytest.mark.parametrize("schedule", ["fixed:7", "fixed:1"])
    def test_non_finite_period_names_its_substep(self, case1, schedule):
        # under a fixed schedule every live row flows, or every one jumps,
        # at each transition, so the block moves them without masks; a row
        # whose period ends non-finite still takes its substep from the
        # scalar kernel
        model = _overflowing("drift")
        zero = (Polynomial.constant(0.0),)
        ctrl = replace(case1.candidate, nu_flow=zero, nu_jump=zero)
        n = 64
        config = SimConfig(
            horizon_T=6, n_trajectories=n, master_seed=2, substeps_per_tau=10,
            schedule=JumpSchedule.parse(schedule),
        )
        batch = _simulate_block(model, ctrl, config, None, 0, n, keep=n)
        for i, got in enumerate(batch):
            assert_same(model, got, _outcome(lambda: simulate(model, ctrl, config, traj_index=i)))
        steps = {t.step for t in batch if isinstance(t, BlowUpError)}
        assert len(steps) > 1 and any(isinstance(t, sim.Trajectory) for t in batch)
