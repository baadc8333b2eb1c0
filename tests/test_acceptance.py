"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s or read the
captured output).

The published certificates bundled with the case study do not verify:
check_cbc finds failed conditions in all three (case 2 misses its jump
condition by about 4e8 at x = 8), so the deltas they imply bound
nothing. Criterion 4 therefore compares Monte Carlo, per bundled case
and under that case's bundled jump schedule, with the bound of a
certificate re-derived for the unchanged model and proved by the checker
before any trajectory is drawn. Criterion 4 also asserts the published
case-2 mismatch and prints it in its line, and `shscert repro 2` still
reports it as `bound_violated: true`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from shscert import (
    BlowUpError,
    CbcCandidate,
    NoiseMoments,
    Polynomial,
    SHSModel,
    SimConfig,
    SynthTemplate,
    check_acbc_conditions,
    check_cbc,
    compute_delta,
    compute_delta_for,
    construct_acbc,
    flow_step,
    generator,
    load_case,
    min_on_interval,
    monte_carlo,
    search,
    simulate,
    sturm_root_count,
)
from shscert.cli import main as cli_main

from conftest import ACCEPTANCE_LINES, allclose, period_noise, scalar_model

X = Polynomial.variable("x")


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"{criterion}: {detail}"


def delta_oracle(alpha: float, eta: float, kappa: float, gamma: float, T: int) -> float:
    """Independent spreadsheet-style evaluation of the bound formula."""
    if eta >= gamma / (1.0 - kappa):
        prod = 1.0
        for _ in range(T):
            prod *= 1.0 - gamma / eta
        return 1.0 - (1.0 - alpha / eta) * prod
    acc = (alpha / eta)
    kT = 1.0
    for _ in range(T):
        kT *= kappa
    return acc * kT + gamma / ((1.0 - kappa) * eta) * (1.0 - kT)


class TestCriterion1DeltaReproduction:
    CASES = [
        ("case1", 0.13, 4.4, 0.99, 0.0012, 0.9443),
        ("case2", 1.0032 * 0.12, 1.0005 * 4.6, 0.99, 0.003, 0.9124),
        ("case3", 0.9975 * 0.16, 0.9825 * 4.2, 0.997, 0.003, 0.8939),
    ]

    def test_published_probabilities(self):
        details = []
        ok = True
        for name, alpha, eta, kappa, gamma, target in self.CASES:
            sb = compute_delta(alpha, eta, kappa, gamma, 100)
            oracle = delta_oracle(alpha, eta, kappa, gamma, 100)
            good = (
                abs(sb.safety_probability - target) <= 1e-4
                and abs(sb.delta - oracle) <= 1e-12
            )
            ok &= good
            details.append(f"{name}={sb.safety_probability:.6f} (target {target})")
        report("criterion-1 delta reproduction", ok, ", ".join(details))


class TestCriterion2LiftedConstants:
    def test_beta_pairs_and_side_conditions(self):
        targets = {"1": (1.0, 1.0), "2": (1.0032, 1.0005), "3": (0.9975, 0.9825)}
        details = []
        ok = True
        for cid, (ba_t, be_t) in targets.items():
            case = load_case(cid)
            acbc = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
            good = (
                abs(acbc.beta_alpha - ba_t) <= 1e-3 and abs(acbc.beta_eta - be_t) <= 1e-3
            )
            # separation and per-counter decay re-checked explicitly
            c, jp = case.candidate, case.model.jump
            good &= acbc.beta_eta * c.etabar > acbc.beta_alpha * c.alphabar
            for z in range(1, 8):
                good &= math.log(c.kappa2) - c.kappa1 * jp.tau * z < 0
            ok &= good
            details.append(
                f"case{cid}: beta_alpha={acbc.beta_alpha:.4f}, beta_eta={acbc.beta_eta:.4f}"
            )
        # the uncovered constant quadrant must refuse construction
        bad = load_case(1).candidate
        from shscert import CbcCandidate

        broken = CbcCandidate(
            bad.Bbar, -0.1, 1.5, bad.gamma1, bad.gamma2, bad.alphabar, bad.etabar,
            bad.nu_flow, bad.nu_jump,
        )
        try:
            construct_acbc(broken, load_case(1).model.jump)
            ok = False
            details.append("unsupported regime NOT rejected")
        except ValueError:
            details.append("unsupported regime rejected")
        report("criterion-2 lifted constants", ok, "; ".join(details))


class TestCriterion3LevelSets:
    def test_level_sets_and_margin_repair(self):
        case = load_case(1)
        rep = check_cbc(case.model, case.candidate)
        level_ok = (
            rep["initial"].status == "holds"
            and rep["unsafe"].status == "holds"
            and rep["nonneg"].status == "holds"
            and abs(rep["unsafe"].margin - 0.163) <= 1e-3
        )
        # decay conditions must at least complete with finite margins
        finite_ok = all(
            math.isfinite(rep[c].margin) for c in ("flow", "jump")
        )
        detail = (
            f"initial={rep['initial'].margin:.4f}, unsafe={rep['unsafe'].margin:.4f}, "
            f"nonneg={rep['nonneg'].margin:.6f}, flow={rep['flow'].margin:.6f}, "
            f"jump={rep['jump'].margin:.6f}"
        )
        repaired_ok = True
        if rep["flow"].margin < 0 or rep["jump"].margin < 0:
            result = search(
                case.model,
                SynthTemplate(budget=100_000, seed=1),
                warm_start=case.candidate,
            )
            repaired_ok = (
                result.feasible
                and result.candidate.Bbar.degree() == 4
                and result.evaluations <= 100_000
                and check_cbc(case.model, result.candidate).min_margin > 0
            )
            detail += (
                f"; warm-start repair feasible={result.feasible} "
                f"in {result.evaluations} evaluations"
            )
        report("criterion-3 level sets", level_ok and finite_ok and repaired_ok, detail)


def min_on_reals(p: Polynomial) -> float:
    """Minimum of a univariate polynomial in x over all of R.

    Without an even degree and a positive leading coefficient it is -inf.
    With them the minimum sits at a critical point, and every real root
    of p' lies within the Cauchy bound 1 + max|d_k / d_lead|.
    """
    c = p.dense_coeffs("x")
    if len(c) % 2 == 0 or c[-1] <= 0:
        return -math.inf
    d = p.derivative("x").dense_coeffs("x")
    radius = 1.0 + max((abs(dk / d[-1]) for dk in d[:-1]), default=0.0)
    return min_on_interval(p, -radius, radius)[0]


def steer(f: Polynomial, target: Polynomial, model: SHSModel) -> Polynomial:
    """Feedback nu with f(x, nu, 0) = target, for f affine in nu."""
    (nu,), (w,) = model.input_vars, model.noise_vars
    free = f.substitute({nu: 0.0, w: 0.0})
    gain = f.derivative(nu).constant_value()
    return (target - free) * (1.0 / gain)


def proved_certificate(model: SHSModel) -> CbcCandidate:
    """A certificate re-derived for a bundled case model.

    The controllers steer every bundled case onto one closed loop: flow
    drift -0.3x^3 + 0.2(2 - x), which is case 2's own drift under
    nu = 2 - x, and post-jump state 1 + 0.5w, the jump controller
    cancelling the x^3 term of f2. On that loop B = 0.004(x - 1)^4 + 0.001
    is centred on the post-jump mean and positive on all of R, and the
    constants follow from the conditions: alphabar = 0.0055 >= B(0) on X0,
    etabar = 5.1 <= B(7) = 5.185 on Xu, E[B(1 + 0.5w)] = 0.00175 <=
    0.9 B + 0.002 (kappa2, gamma2), and kappa1 = 0.01, gamma1 = 0.004 leave
    the flow condition a margin of about 1.8e-3. check_cbc proves all five
    conditions with a minimum margin of 5e-4.
    """
    drift = -0.3 * X**3 + 0.2 * (2 - X)
    return CbcCandidate(
        Bbar=0.004 * (X - 1) ** 4 + 0.001,
        kappa1=0.01,
        kappa2=0.9,
        gamma1=0.004,
        gamma2=0.002,
        alphabar=0.0055,
        etabar=5.1,
        nu_flow=(steer(model.f1[0], drift, model),),
        nu_jump=(steer(model.f2[0], Polynomial.constant(1.0), model),),
    )


class TestCriterion4MonteCarloConsistency:
    """Monte Carlo against the bound of a certificate proved for each case."""

    @pytest.mark.parametrize("cid", ["1", "2", "3"])
    def test_exceedance_within_bound(self, cid):
        case = load_case(cid)
        jp = case.model.jump

        # the published certificate does not verify and carries no bound
        published = check_cbc(case.model, case.candidate)
        published_acbc = construct_acbc(case.candidate, jp, case.eps1, case.eps2)
        published_delta = compute_delta_for(published_acbc, case.horizon).delta
        published_fails = [c.condition for c in published.conditions if c.status == "fails"]
        if cid == "2":
            jump = published["jump"]
            assert jump.status == "fails", jump
            assert jump.witness == {"x": 8.0}, jump
            assert jump.margin < -1e8, jump

        # the compared certificate is proved before a trajectory is drawn
        cand = proved_certificate(case.model)
        rep = check_cbc(case.model, cand)
        assert rep.all_hold and rep.min_margin > 0, rep.to_json()
        acbc = construct_acbc(cand, jp, case.eps1, case.eps2)
        assert check_acbc_conditions(case.model, acbc).all_hold
        # gamma must cover the Gronwall flow term of regime R1, so delta does
        # not rest on the exp(-kappa1 tau) tau gamma1 relaxation
        assert acbc.regime == "R1"
        gronwall = cand.gamma1 * (1 - math.exp(-cand.kappa1 * jp.tau)) / cand.kappa1
        assert acbc.gamma >= gronwall, (acbc.gamma, gronwall)
        delta = compute_delta_for(acbc, case.horizon).delta
        assert delta < 1, delta
        # simulated states leave X, so B must be nonnegative everywhere
        assert min_on_reals(cand.Bbar) > 0

        config = SimConfig(
            horizon_T=case.horizon,
            n_trajectories=1000,
            substeps_per_tau=20,
            master_seed=20240 + int(cid),
            schedule=case.schedule,
        )
        mc = monte_carlo(case.model, cand, acbc, config)
        assert mc.delta == delta
        # non-binding qualitative check on a 100-trajectory subsample
        in_zone = below_cap = sub_blowups = 0
        for idx in range(100):
            try:
                traj = simulate(case.model, cand, config, acbc=acbc, traj_index=idx)
            except BlowUpError:
                sub_blowups += 1
                continue
            xs = [r.x[0] for r in traj.records]
            if max(xs) <= 7.0:
                below_cap += 1
                if min(xs) >= 0.0:
                    in_zone += 1
        ordering_ok = mc.p_unsafe_hat <= mc.p_exceed_hat
        bound_ok = mc.ci99_exceed[0] <= delta
        report(
            f"criterion-4 monte carlo [case {cid}, schedule {case.schedule.describe()}]",
            ordering_ok and bound_ok,
            f"proved certificate (min margin {rep.min_margin:.2g}, {acbc.regime}): "
            f"p_exceed={mc.p_exceed_hat:.4f}, ci99_low={mc.ci99_exceed[0]:.4f}, "
            f"delta={delta:.4f}, p_unsafe={mc.p_unsafe_hat:.4f}, "
            f"blowups={mc.blowup_count}, below_7={below_cap}%, in_[0,7]={in_zone}%, "
            f"subsample blowups={sub_blowups}; published certificate fails "
            f"{', '.join(published_fails)} (jump margin {published['jump'].margin:.3g} "
            f"at {published['jump'].witness}), so its delta="
            f"{published_delta:.4f} is no bound",
        )


class TestCriterion5FlowRelaxationBound:
    def test_linear_flow_bound(self):
        nu_val = 0.3
        kappa1 = 1.0
        gamma1 = 0.485 + (2 * nu_val + 0.5) ** 2 / 4
        nu = Polynomial.variable("nu")
        m = scalar_model(f1=-X + nu, f2=X, sigma=0.6, rho=0.5, rate=0.5, X=(-50, 50))
        ctrl = (Polynomial.constant(nu_val),)
        B = X**2

        # analytic verification of the decay inequality: the slack
        # polynomial is a perfect square, so its margin is exactly zero
        gen = generator(m, B, ctrl)
        slack = -gen - kappa1 * B + gamma1
        root = (2 * nu_val + 0.5) / 2
        assert allclose(slack, (X - root) ** 2, tol=1e-12)

        tau, substeps, n = 0.1, 50, 2000
        factor = math.exp(-kappa1 * tau)
        rng = np.random.default_rng(515)
        worst = math.inf
        ok = True
        for x0 in rng.uniform(-3.0, 3.0, 20):
            samples = np.array(
                [
                    flow_step(m, (float(x0),), (nu_val,), tau, substeps, *period_noise(m, rng, tau, substeps))[0] ** 2
                    for _ in range(n)
                ]
            )
            mean = float(np.mean(samples))
            se = float(np.std(samples, ddof=1)) / math.sqrt(n)
            bound = factor * (x0**2 + tau * gamma1)
            worst = min(worst, bound + 3 * se - mean)
            ok &= mean <= bound + 3 * se
        report(
            "criterion-5 flow relaxation bound",
            ok,
            f"20 starts, kappa1={kappa1}, gamma1={gamma1:.4f}, "
            f"worst slack (bound + 3se - mean) = {worst:.4f}",
        )


class TestCriterion6OracleSuites:
    def test_sturm_against_dense_scan(self):
        rng = np.random.default_rng(606)
        checked = 0
        mismatches = 0
        while checked < 500:
            n_real = int(rng.integers(0, 5))
            n_cplx = int(rng.integers(0, (8 - n_real) // 2 + 1))
            degree = n_real + 2 * n_cplx
            if degree < 1:
                continue
            roots = np.sort(rng.uniform(-9, 9, n_real))
            if n_real > 1 and np.min(np.diff(roots)) <= 1e-4:
                continue
            coeffs = np.array([float(rng.uniform(0.2, 2.0))])
            for r in roots:
                coeffs = np.convolve(coeffs, [1.0, -r])
            for _ in range(n_cplx):
                re, im = rng.uniform(-3, 3), rng.uniform(0.1, 3)
                coeffs = np.convolve(coeffs, [1.0, -2 * re, re * re + im * im])
            a, b = np.sort(rng.uniform(-10, 10, 2))
            if b - a < 0.05:
                continue
            if n_real and (np.min(np.abs(roots - a)) <= 1e-4 or np.min(np.abs(roots - b)) <= 1e-4):
                continue
            p = Polynomial.univariate("x", coeffs[::-1])
            grid = np.linspace(a, b, 1_000_001)
            # np.polyval's Horner steps, in place: the same values, bit for bit
            y = np.zeros_like(grid)
            for c in coeffs:
                y *= grid
                y += c
            pos, neg = y > 0, y < 0
            scan = np.count_nonzero(pos[:-1] & neg[1:]) + np.count_nonzero(neg[:-1] & pos[1:])
            if sturm_root_count(p, a, b) != scan:
                mismatches += 1
            checked += 1
        report(
            "criterion-6a sturm vs dense scan",
            mismatches == 0,
            f"{checked} random polynomials, {mismatches} mismatches",
        )

    def test_expectation_against_sampling(self):
        rng = np.random.default_rng(660)
        moments = NoiseMoments.standard_normal(8)
        failures = 0
        for _ in range(100):
            coeffs = {
                (i, j): float(rng.uniform(-1, 1))
                for i in range(4)
                for j in range(4)
                if rng.random() < 0.7
            }
            coeffs[(0, 0)] = coeffs.get((0, 0), 0.3)
            p = Polynomial(("x", "w"), coeffs)
            x0 = float(rng.uniform(-2, 2))
            analytic = p.expect({"w": moments}).eval({"x": x0})
            w = rng.standard_normal(100_000)
            # collapse to a dense polynomial in w at the fixed state
            wpoly = np.zeros(4)
            for (i, j), c in coeffs.items():
                wpoly[j] += c * x0**i
            vals = np.polyval(wpoly[::-1], w)
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            if abs(analytic - float(np.mean(vals))) > 4 * se + 1e-9:
                failures += 1
        report(
            "criterion-6b expectation vs sampling",
            failures == 0,
            f"100 random instances, {failures} outside 4 standard errors",
        )

    def test_generator_linearity_and_dynkin(self):
        case = load_case(1)
        rng = np.random.default_rng(66)
        m, ctrl = case.model, case.candidate.nu_flow
        lin_ok = True
        for _ in range(10):
            p = Polynomial.univariate("x", rng.uniform(-1, 1, 5))
            q = Polynomial.univariate("x", rng.uniform(-1, 1, 5))
            a, b = rng.uniform(-2, 2, 2)
            lhs = generator(m, a * p + b * q, ctrl)
            rhs = a * generator(m, p, ctrl) + b * generator(m, q, ctrl)
            lin_ok &= allclose(lhs, rhs, tol=1e-10)

        nu = Polynomial.variable("nu")
        det = scalar_model(f1=-(X**3) + 1.0 + 0.0 * nu, f2=X, sigma=0.0, rho=0.0, rate=0.0)
        B = case.candidate.Bbar
        gen = generator(det, B, (Polynomial.constant(0.0),))
        h = 1e-3
        path = [(0.3,)]
        for _ in range(201):
            path.append(flow_step(det, path[-1], (0.0,), h, 1, *period_noise(det, rng, h, 1)))
        dynkin_ok = True
        for i in range(50, 201, 25):
            fd = (B.eval({"x": path[i + 1][0]}) - B.eval({"x": path[i - 1][0]})) / (2 * h)
            want = gen.eval({"x": path[i][0]})
            dynkin_ok &= abs(fd - want) <= 1e-3 * max(1.0, abs(want))
        report(
            "criterion-6c generator linearity and flow consistency",
            lin_ok and dynkin_ok,
            f"linearity={lin_ok}, finite-difference consistency={dynkin_ok}",
        )


class TestCriterion7Determinism:
    def test_repeated_repro_byte_identical(self, tmp_path):
        args = ["repro", "1", "--runs", "150", "--seed", "7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        same_sets = names_a == names_b
        diffs = []
        for name in names_a:
            if name == "repro_manifest.json":
                continue  # carries wall-clock, excluded by design
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                diffs.append(name)
        data_files = [n for n in names_a if n != "repro_manifest.json"]
        report(
            "criterion-7 determinism",
            same_sets and not diffs,
            f"{len(data_files)} JSON/CSV outputs byte-compared, differing: {diffs}",
        )
