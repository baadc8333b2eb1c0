from __future__ import annotations

import math
from dataclasses import replace

import pytest

from shscert import (
    Acbc,
    CbcCandidate,
    JumpParams,
    Polynomial,
    check_acbc_conditions,
    check_cbc,
    construct_acbc,
)
from shscert.augment import beta

X = Polynomial.variable("x")
JP = JumpParams(0.1, 1, 7)


def make_candidate(kappa1, kappa2, gamma1=0.001, gamma2=0.001, alphabar=0.1, etabar=4.0):
    return CbcCandidate(
        X**2, kappa1, kappa2, gamma1, gamma2, alphabar, etabar,
        (Polynomial.constant(0.0),), (Polynomial.constant(0.0),),
    )


class TestConstruction:
    def test_case1_regime_and_constants(self, case1):
        a = construct_acbc(case1.candidate, JP, 0.1, 8.0)
        assert a.regime == "R1"
        assert a.beta_alpha == 1.0 and a.beta_eta == 1.0
        assert a.alpha == 0.13 and a.eta == 4.4
        # kappa = max(exp(-kappa1 tau), kappa2); the exponential wins here
        assert a.kappa == pytest.approx(math.exp(-0.001))
        assert a.gamma == pytest.approx(max(math.exp(-0.001) * 0.1 * 0.0015, 0.0012))
        assert a.gamma == pytest.approx(0.0012)

    def test_case2_regime_and_constants(self, case2):
        a = construct_acbc(case2.candidate, JP, 0.1, 8.0)
        assert a.regime == "R2"
        assert a.beta_eta == pytest.approx(1.0005, abs=1e-3)
        assert a.beta_alpha == pytest.approx(1.0032, abs=1e-3)
        # separation reads beta_eta * etabar > beta_alpha * alphabar
        assert a.beta_eta * 4.6 > a.beta_alpha * 0.12
        assert a.kappa == pytest.approx(
            max(math.exp(-0.04547 * 0.1 * 0.9), math.exp(-0.04547 * 0.01) * 1.00001)
        )
        assert a.gamma == pytest.approx(0.003)

    def test_case3_regime_and_constants(self, case3):
        a = construct_acbc(case3.candidate, JP, 0.1, 8.0)
        assert a.regime == "R3"
        assert a.beta_eta == pytest.approx(0.9825, abs=1e-3)
        assert a.beta_alpha == pytest.approx(0.9975, abs=1e-3)
        assert a.kappa == pytest.approx(0.997, abs=1e-3)
        assert a.gamma == pytest.approx(0.003)

    def test_unsupported_regime(self):
        with pytest.raises(ValueError, match="unsupported regime"):
            construct_acbc(make_candidate(-0.1, 1.5), JP)

    def test_eps1_range(self, case1):
        with pytest.raises(ValueError, match="eps1"):
            construct_acbc(case1.candidate, JP, eps1=1.0)

    def test_eps2_must_exceed_q2(self, case1):
        with pytest.raises(ValueError, match="eps2"):
            construct_acbc(case1.candidate, JP, eps2=7.0)

    def test_eps2_defaults_above_q2(self, case1):
        a = construct_acbc(case1.candidate, JP)
        assert a.eps2 == JP.q2 + 1

    def test_separation_violation_named(self):
        # R3 weights shrink eta by kappa2^(q2/eps2) far more than alpha
        cand = make_candidate(-0.001, 0.5, alphabar=4.0, etabar=4.1)
        with pytest.raises(ValueError, match="separation"):
            construct_acbc(cand, JP, 0.1, 8.0)

    def test_counter_decay_violation_names_z(self):
        cand = make_candidate(0.1, 1.5, etabar=400.0)
        with pytest.raises(ValueError, match="z=1"):
            construct_acbc(cand, JP, 0.1, 8.0)

    def test_kappa_must_leave_unit_interval_error(self):
        # decay condition holds but the lifted rate lands at >= 1
        cand = make_candidate(0.0002, 1.00001)
        with pytest.raises(ValueError, match="kappa"):
            construct_acbc(cand, JP, 0.1, 8.0)

    def test_constructed_instances_satisfy_invariants(self, case1, case2, case3):
        for case in (case1, case2, case3):
            a = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
            assert 0 < a.kappa < 1
            assert a.gamma >= 0
            assert a.eta > a.alpha
            k1, k2, tau = case.candidate.kappa1, case.candidate.kappa2, JP.tau
            for z in range(JP.q1, JP.q2 + 1):
                assert math.exp(-k1 * tau * z) * k2 < 1

    def test_json_round_trip(self, case3):
        a = construct_acbc(case3.candidate, JP, 0.1, 8.0)
        again = Acbc.from_json(a.to_json())
        assert again.regime == a.regime
        assert again.kappa == a.kappa
        assert again.beta(5) == a.beta(5)


class TestBeta:
    def test_r1_is_flat(self, case1):
        a = construct_acbc(case1.candidate, JP, 0.1, 8.0)
        assert [beta(a, z) for z in range(8)] == [1.0] * 8

    def test_r2_at_zero(self, case2):
        a = construct_acbc(case2.candidate, JP, 0.1, 8.0)
        assert beta(a, 0) == 1.0

    def test_r3_values_and_range(self, case3):
        a = construct_acbc(case3.candidate, JP, 0.1, 8.0)
        assert beta(a, 7) == pytest.approx(0.98 ** (7 / 8))
        assert beta(a, 7) == pytest.approx(0.98248, abs=1e-5)
        with pytest.raises(ValueError, match="z=8"):
            beta(a, 8)
        with pytest.raises(ValueError):
            beta(a, -1)

    def test_monotonicity_and_table_consistency(self, case2, case3):
        a2 = construct_acbc(case2.candidate, JP, 0.1, 8.0)
        vals2 = [beta(a2, z) for z in range(8)]
        assert all(b2 >= b1 for b1, b2 in zip(vals2, vals2[1:]))  # R2 nondecreasing
        a3 = construct_acbc(case3.candidate, JP, 0.1, 8.0)
        vals3 = [beta(a3, z) for z in range(8)]
        assert all(b2 <= b1 for b1, b2 in zip(vals3, vals3[1:]))  # R3 nonincreasing
        for a in (a2, a3):
            eligible = [a.beta(z) for z in range(JP.q1, JP.q2 + 1)]
            assert a.beta_eta == pytest.approx(min(eligible))
            assert a.beta_alpha == pytest.approx(max(eligible))


class TestAcbcConditions:
    def test_r1_reduction_to_base_checks(self, case1):
        a = construct_acbc(case1.candidate, JP, 0.1, 8.0)
        acbc_rep = check_acbc_conditions(case1.model, a)
        cbc_rep = check_cbc(case1.model, case1.candidate)
        assert acbc_rep["initial"].status == cbc_rep["initial"].status == "holds"
        assert acbc_rep["initial"].margin == pytest.approx(cbc_rep["initial"].margin)
        for z in range(8):
            cond = acbc_rep[f"unsafe[z={z}]"]
            assert cond.status == "holds"
            assert cond.margin == pytest.approx(cbc_rep["unsafe"].margin)

    def test_r1_flow_bound_holds(self, case1):
        a = construct_acbc(case1.candidate, JP, 0.1, 8.0)
        rep = check_acbc_conditions(case1.model, a)
        for z in range(7):
            assert rep[f"flow[z={z}]"].status == "holds"

    def test_failed_base_flow_condition_fails_the_lift(self, case3):
        # the flow relaxation presumes LB <= -kappa1 B + gamma1; under this
        # flow controller the closed-loop drift is 2 - x and that fails
        from test_acceptance import proved_certificate

        cand = replace(
            proved_certificate(case3.model),
            nu_flow=((2 - X - 0.01 * X**3) * (1 / 0.7),),
        )
        base = check_cbc(case3.model, cand)["flow"]
        assert base.status == "fails" and base.margin == pytest.approx(-0.01567, abs=1e-5)
        acbc = construct_acbc(cand, case3.model.jump, case3.eps1, case3.eps2)
        rep = check_acbc_conditions(case3.model, acbc)
        assert rep["flow[base]"].status == "fails"
        assert rep["flow[base]"].margin == base.margin
        assert not rep.all_hold
        assert all(c.status == "holds" for c in rep.conditions if c.condition != "flow[base]")

    def test_equal_levels_fail_constants_check(self, case1):
        a = construct_acbc(case1.candidate, JP, 0.1, 8.0)
        broken = Acbc(
            base=a.base, jump=a.jump, regime=a.regime, eps1=a.eps1, eps2=a.eps2,
            alpha=a.eta, eta=a.eta, kappa=a.kappa, gamma=a.gamma,
            beta_alpha=a.beta_alpha, beta_eta=a.beta_eta,
        )
        rep = check_acbc_conditions(case1.model, broken)
        assert rep["constants"].status == "fails"

    def test_r2_jump_comparison_scalar_relation(self, case2):
        # at z = q2 the jump check reduces to kappa*beta(q2) >= kappa2 and
        # gamma >= gamma2, which the construction guarantees
        a = construct_acbc(case2.candidate, JP, 0.1, 8.0)
        c = case2.candidate
        assert a.kappa * a.beta(JP.q2) >= c.kappa2
        assert a.gamma >= c.gamma2
        bmax = 9.0  # exceeds max of the certificate on the working box
        for bval in [bmax * k / 10 for k in range(11)]:
            assert c.kappa2 * bval + c.gamma2 <= a.kappa * a.beta(JP.q2) * bval + a.gamma
