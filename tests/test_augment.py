from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shscert import (
    Acbc,
    CbcCandidate,
    JumpParams,
    Polynomial,
    check_acbc_conditions,
    check_cbc,
    construct_acbc,
    load_case,
)

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
        for eps2 in (7.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps2 must be finite and exceed q2=7"):
                construct_acbc(case1.candidate, JP, eps2=eps2)

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

    def test_overflowing_constants_named(self):
        with pytest.raises(ValueError, match="lifted constants overflow"):
            construct_acbc(make_candidate(1e6, 1.5), JP, 0.1, 8.0)

    @pytest.mark.parametrize("name", ["gamma", "eta", "beta_alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constant_rejected(self, case1, name, value):
        # a document cannot state a constant: it must be the derived one
        a = construct_acbc(case1.candidate, JP, 0.1, 8.0)
        derived = getattr(a, name)
        assert math.isfinite(derived)
        message = f"{name}: written {value!r}, derived {derived!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Acbc.from_dict({**a.to_dict(), name: value})

    @pytest.mark.parametrize(
        "name, cand, jump",
        [
            # finite inputs, but a counter weight above 1 (R2), or tau,
            # scales them past the largest float
            ("alpha", make_candidate(10.0, 1.0, alphabar=1.7e308, etabar=1.79e308), JP),
            ("eta", make_candidate(10.0, 1.0, etabar=1.7e308), JP),
            ("gamma", make_candidate(0.01, 0.5, gamma1=1e307), JumpParams(100.0, 1, 7)),
        ],
        ids=["alpha", "eta", "gamma"],
    )
    def test_non_finite_derived_constant_rejected(self, name, cand, jump):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            construct_acbc(cand, jump, 0.1, 8.0)

    def test_constructed_instances_satisfy_invariants(self, case1, case2, case3):
        for case in (case1, case2, case3):
            a = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
            assert 0 < a.kappa < 1
            assert a.gamma >= 0
            assert a.eta > a.alpha
            k1, k2, tau = case.candidate.kappa1, case.candidate.kappa2, JP.tau
            for z in range(JP.q1, JP.q2 + 1):
                assert math.exp(-k1 * tau * z) * k2 < 1

    def test_json_round_trip(self, case1, case2, case3):
        for case in (case1, case2, case3):
            a = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
            again = Acbc.from_dict(json.loads(a.to_json()))
            assert again == a and again.weights == a.weights

    def test_reads_only_base_jump_and_slacks(self, case2):
        a = construct_acbc(case2.candidate, case2.model.jump, case2.eps1, case2.eps2)
        doc = a.to_dict()
        kept = {key: doc[key] for key in ("base", "jump", "eps1", "eps2")}
        assert Acbc.from_dict(kept) == a
        assert set(doc) == set(kept) | set(Acbc.derived_keys)
        with pytest.raises(TypeError):
            Acbc(a.base, a.jump, a.eps1, a.eps2, a.regime)

    @pytest.mark.parametrize("case_id", [1, 2, 3])
    def test_decay_is_derived_and_not_written(self, case_id):
        case = load_case(case_id)
        a = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
        assert a.decay == math.exp(-case.candidate.kappa1 * case.model.jump.tau)
        assert "decay" not in a.to_dict()


class TestBeta:
    def test_r1_is_flat(self, case1):
        a = construct_acbc(case1.candidate, JP, 0.1, 8.0)
        assert a.weights == (1.0,) * 8

    def test_r2_at_zero(self, case2):
        a = construct_acbc(case2.candidate, JP, 0.1, 8.0)
        assert a.weights[0] == 1.0

    def test_r3_values_and_range(self, case3):
        # the table covers exactly the counter values 0..q2
        a = construct_acbc(case3.candidate, JP, 0.1, 8.0)
        assert a.weights[7] == pytest.approx(0.98 ** (7 / 8))
        assert a.weights[7] == pytest.approx(0.98248, abs=1e-5)
        assert len(a.weights) == JP.q2 + 1

    def test_monotonicity_and_table_consistency(self, case2, case3):
        a2 = construct_acbc(case2.candidate, JP, 0.1, 8.0)
        vals2 = a2.weights
        assert all(b2 >= b1 for b1, b2 in zip(vals2, vals2[1:]))  # R2 nondecreasing
        a3 = construct_acbc(case3.candidate, JP, 0.1, 8.0)
        vals3 = a3.weights
        assert all(b2 <= b1 for b1, b2 in zip(vals3, vals3[1:]))  # R3 nonincreasing
        for a in (a2, a3):
            eligible = a.weights[JP.q1 : JP.q2 + 1]
            assert a.beta_eta == pytest.approx(min(eligible))
            assert a.beta_alpha == pytest.approx(max(eligible))


@st.composite
def lift_inputs(draw, regime):
    """(candidate, jump params, eps1, eps2) in ``regime`` that satisfy every
    invariant of ``Acbc``: the level constants leave room for any counter
    weight drawn here, and kappa2 keeps the per-counter decay condition and
    kappa below 1."""
    tau = draw(st.floats(0.01, 0.5))
    q1 = draw(st.integers(1, 8))
    q2 = draw(st.integers(q1, 8))
    eps1 = draw(st.floats(0.01, 0.99))
    eps2 = q2 + draw(st.floats(0.01, 4.0))
    if regime == "R1":
        kappa1, kappa2 = draw(st.floats(0.01, 2.0)), draw(st.floats(0.01, 0.99))
    elif regime == "R2":
        kappa1 = draw(st.floats(0.01, 2.0))
        # ln(kappa2) below kappa1 tau eps1 q1 keeps both conditions
        kappa2 = math.exp(draw(st.floats(0.0, 0.99)) * eps1 * kappa1 * tau * q1)
    else:
        kappa1 = draw(st.floats(-1.0, 0.0))
        kappa2 = math.exp(kappa1 * tau * eps2 - draw(st.floats(0.01, 3.0)))
    gamma1, gamma2 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    cand = make_candidate(kappa1, kappa2, gamma1, gamma2, alphabar=0.001, etabar=100.0)
    return cand, JumpParams(tau, q1, q2), eps1, eps2


def paper_weight(regime, cand, jp, eps1, eps2, z):
    """beta(z) of the paper's closed form for the regime."""
    if regime == "R1":
        return 1.0
    if regime == "R2":
        return math.exp(cand.kappa1 * jp.tau * eps1 * z)
    return cand.kappa2 ** (z / eps2)


def paper_constants(regime, cand, jp, eps1, eps2):
    """(beta_alpha, beta_eta, kappa, gamma) of the paper's closed forms for
    the regime, each written out in full."""
    k1, k2, g1, g2 = cand.kappa1, cand.kappa2, cand.gamma1, cand.gamma2
    tau, q1, q2, exp = jp.tau, jp.q1, jp.q2, math.exp
    if regime == "R1":
        return 1.0, 1.0, max(exp(-k1 * tau), k2), max(exp(-k1 * tau) * tau * g1, g2)
    if regime == "R2":
        return (
            exp(k1 * tau * eps1 * q2),
            exp(k1 * tau * eps1 * q1),
            max(exp(-k1 * tau * (1 - eps1)), exp(-k1 * tau * eps1 * q1) * k2),
            max(exp(k1 * tau * eps1 * q2) * exp(-k1 * tau) * tau * g1, g2),
        )
    return (
        k2 ** (q1 / eps2),
        k2 ** (q2 / eps2),
        max(exp(-k1 * tau) * k2 ** (1 / eps2), k2 ** ((eps2 - q2) / eps2)),
        max(k2 ** (1 / eps2) * exp(-k1 * tau) * tau * g1, g2),
    )


class TestCounterWeights:
    @pytest.mark.parametrize("regime", ["R1", "R2", "R3"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_constants_are_the_closed_forms(self, regime, data):
        cand, jp, eps1, eps2 = data.draw(lift_inputs(regime))
        a = construct_acbc(cand, jp, eps1, eps2)
        assert a.regime == regime
        got = (a.beta_alpha, a.beta_eta, a.kappa, a.gamma)
        want = paper_constants(regime, cand, jp, eps1, eps2)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        want = [paper_weight(regime, cand, jp, eps1, eps2, z) for z in range(jp.q2 + 1)]
        assert [w.hex() for w in a.weights] == [w.hex() for w in want]


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
        # the report needs no entry for the constants: they are derived, so
        # a document that states other levels cannot be read
        a = construct_acbc(case1.candidate, JP, 0.1, 8.0)
        message = f"alpha: written {a.eta!r}, derived {a.alpha!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Acbc.from_dict({**a.to_dict(), "alpha": a.eta})

    def test_r2_jump_comparison_scalar_relation(self, case2):
        # at z = q2 the jump check reduces to kappa*beta(q2) >= kappa2 and
        # gamma >= gamma2, which the construction guarantees
        a = construct_acbc(case2.candidate, JP, 0.1, 8.0)
        c = case2.candidate
        assert a.kappa * a.weights[JP.q2] >= c.kappa2
        assert a.gamma >= c.gamma2
        bmax = 9.0  # exceeds max of the certificate on the working box
        for bval in [bmax * k / 10 for k in range(11)]:
            assert c.kappa2 * bval + c.gamma2 <= a.kappa * a.weights[JP.q2] * bval + a.gamma
