from __future__ import annotations

import math

import numpy as np
import pytest

from shscert import SafetyBound, compute_delta, compute_delta_for, construct_acbc


class TestPublishedValues:
    def test_case1(self):
        sb = compute_delta(0.13, 4.4, 0.99, 0.0012, 100)
        assert sb.case == "first"
        assert sb.delta == pytest.approx(0.0557, abs=1e-4)
        assert sb.safety_probability == pytest.approx(0.9443, abs=1e-4)

    def test_case2_rounded(self):
        sb = compute_delta(1.0032 * 0.12, 1.0005 * 4.6, 0.99, 0.003, 100)
        assert sb.safety_probability == pytest.approx(0.9124, abs=1e-4)

    def test_case3_rounded(self):
        sb = compute_delta(0.9975 * 0.16, 0.9825 * 4.2, 0.997, 0.003, 100)
        assert sb.safety_probability == pytest.approx(0.8939, abs=1e-4)


class TestBranches:
    def test_zero_alpha_zero_gamma(self):
        assert compute_delta(0.0, 1.0, 0.5, 0.0, 50).delta == 0.0

    def test_second_branch_clamps(self):
        sb = compute_delta(0.1, 1.0, 0.5, 0.6, 10)
        assert sb.case == "second"
        assert sb.delta_raw == pytest.approx(0.1 * 0.5**10 + 1.2 * (1 - 0.5**10))
        assert sb.delta_raw > 1
        assert sb.delta == 1.0

    def test_branch_selection_tie_goes_first(self):
        # eta exactly gamma / (1 - kappa)
        sb = compute_delta(0.1, 1.0, 0.5, 0.5, 10)
        assert sb.case == "first"

    def test_branches_agree_at_zero_horizon(self):
        first = compute_delta(0.2, 2.0, 0.5, 0.1, 0)  # eta >= gamma/(1-kappa)
        second = compute_delta(0.2, 2.0, 0.9, 0.5, 0)  # eta < gamma/(1-kappa)
        assert first.case == "first" and second.case == "second"
        assert first.delta == pytest.approx(0.1)
        assert second.delta == pytest.approx(0.1)

    def test_monotonicity_samples(self):
        base = dict(alpha=0.1, eta=2.0, kappa=0.8, gamma=0.05)
        deltas_T = [compute_delta(horizon=T, **base).delta for T in (0, 1, 5, 20, 100)]
        assert all(b >= a for a, b in zip(deltas_T, deltas_T[1:]))
        deltas_a = [compute_delta(0.1 * s, 2.0, 0.8, 0.05, 50).delta for s in (0.5, 1, 2, 5)]
        assert all(b >= a for a, b in zip(deltas_a, deltas_a[1:]))
        deltas_g = [compute_delta(0.1, 2.0, 0.8, 0.01 * s, 50).delta for s in (1, 2, 5, 10)]
        assert all(b >= a for a, b in zip(deltas_g, deltas_g[1:]))
        # first branch: nonincreasing in eta
        deltas_e = [compute_delta(0.1, e, 0.8, 0.05, 50).delta for e in (1.0, 2.0, 4.0, 8.0)]
        assert all(b <= a for a, b in zip(deltas_e, deltas_e[1:]))

    def test_randomized_branch_formula_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            alpha = float(rng.uniform(0, 1))
            eta = alpha + float(rng.uniform(0.01, 5))
            kappa = float(rng.uniform(0.01, 0.99))
            gamma = float(rng.uniform(0, 1))
            T = int(rng.integers(0, 200))
            sb = compute_delta(alpha, eta, kappa, gamma, T)
            if eta >= gamma / (1 - kappa):
                want = 1 - (1 - alpha / eta) * (1 - gamma / eta) ** T
            else:
                want = (alpha / eta) * kappa**T + (gamma / ((1 - kappa) * eta)) * (
                    1 - kappa**T
                )
            assert sb.delta_raw == pytest.approx(want, rel=1e-12)
            assert 0.0 <= sb.delta <= 1.0


class TestPreconditions:
    @pytest.mark.parametrize(
        "args,match",
        [
            ((0.1, 1.0, 1.0, 0.0, 10), "kappa"),
            ((0.1, 1.0, 0.0, 0.0, 10), "kappa"),
            ((-0.1, 1.0, 0.5, 0.0, 10), "alpha"),
            ((1.0, 1.0, 0.5, 0.0, 10), "eta > alpha"),
            ((0.1, 1.0, 0.5, -0.1, 10), "gamma"),
            ((0.1, 1.0, 0.5, 0.1, -1), "horizon"),
            ((0.1, 1.0, 0.5, math.nan, 10), "gamma"),
            ((0.1, 1.0, 0.5, math.inf, 10), "gamma"),
        ],
    )
    def test_violations_named(self, args, match):
        with pytest.raises(ValueError, match=match):
            compute_delta(*args)


class TestIntegration:
    def test_from_constructed_certificate(self, case1):
        acbc = construct_acbc(case1.candidate, case1.model.jump, case1.eps1, case1.eps2)
        sb = compute_delta_for(acbc, 100)
        # first branch does not involve kappa, so the published number
        # reappears even at full precision
        assert sb.safety_probability == pytest.approx(0.9443, abs=1e-4)

    @pytest.mark.parametrize("horizon", [-1, 2.5])
    def test_constructed_certificate_checks_the_horizon(self, case1, horizon):
        acbc = construct_acbc(case1.candidate, case1.model.jump, case1.eps1, case1.eps2)
        with pytest.raises(ValueError, match="horizon must be a non-negative integer"):
            compute_delta_for(acbc, horizon)

    def test_json_round_trip(self):
        sb = compute_delta(0.13, 4.4, 0.99, 0.0012, 100)
        again = SafetyBound.from_dict(sb.to_dict())
        assert again == sb
