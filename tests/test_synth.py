from __future__ import annotations

from dataclasses import replace

import pytest

from shscert import (
    CbcCandidate,
    Polynomial,
    SynthResult,
    SynthTemplate,
    check_cbc,
    margin_objective,
    search,
)
from shscert.model import JumpParams, NoiseConfig, NoiseMoments, SHSModel
from shscert.poly import IntervalBox
from conftest import allclose
from test_certify import _two_state


class TestTemplate:
    def test_defaults_valid(self):
        t = SynthTemplate()
        assert t.cert_degree == 4

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="even"):
            SynthTemplate(cert_degree=3)

    def test_level_ranges_must_overlap_feasibly(self):
        with pytest.raises(ValueError, match="etabar range"):
            SynthTemplate(ranges={"etabar": (0.0, 0.1), "alphabar": (0.5, 1.0)})

    def test_unknown_range_name_rejected(self):
        with pytest.raises(ValueError, match=r"unknown constant\(s\) \['kapa1'\]"):
            SynthTemplate(ranges={"kapa1": (5.0, 6.0)})

    def test_round_trip(self):
        t = SynthTemplate(cert_degree=6, budget=123, seed=9)
        again = SynthTemplate.from_dict(t.to_dict())
        assert again == t


class TestMarginObjective:
    def test_equals_smallest_reported_margin(self, case1):
        rep = check_cbc(case1.model, case1.candidate)
        assert margin_objective(case1.model, case1.candidate) == rep.min_margin

    def test_positive_for_feasible_candidate(self, easy_model, easy_candidate):
        assert margin_objective(easy_model, easy_candidate) > 0

    def test_negative_margin_comes_from_failing_condition(self, case1):
        rep = check_cbc(case1.model, case1.candidate)
        failing = [c.margin for c in rep.conditions if c.status == "fails"]
        assert margin_objective(case1.model, case1.candidate) == min(failing)


class TestSearch:
    def test_zero_budget_returns_warm_start_unchanged(self, case1):
        t = SynthTemplate(budget=0, seed=1)
        r = search(case1.model, t, warm_start=case1.candidate)
        assert r.status == "infeasible-at-budget"
        assert not r.feasible
        assert r.margin == pytest.approx(margin_objective(case1.model, case1.candidate))
        assert allclose(r.candidate.Bbar, case1.candidate.Bbar, tol=0.0)
        assert r.candidate.gamma2 == case1.candidate.gamma2

    def test_warm_start_repairs_case_study(self, case1):
        t = SynthTemplate(budget=100_000, seed=1)
        r = search(case1.model, t, warm_start=case1.candidate)
        assert r.feasible
        assert r.status == "feasible"
        assert r.candidate.Bbar.degree() == 4
        assert r.evaluations <= 100_000
        # independently re-verified
        assert check_cbc(case1.model, r.candidate).min_margin > 0

    def test_random_search_on_contracting_model(self, easy_model):
        t = SynthTemplate(cert_degree=2, controller_degree=0, budget=10_000, seed=3)
        r = search(easy_model, t)
        assert r.feasible
        assert check_cbc(easy_model, r.candidate).min_margin > 0
        assert r.candidate.Bbar.degree() <= 2

    def test_determinism_under_fixed_seed(self, easy_model):
        t = SynthTemplate(cert_degree=2, controller_degree=0, budget=5_000, seed=11)
        r1 = search(easy_model, t)
        r2 = search(easy_model, t)
        assert r1.margin == r2.margin
        assert r1.evaluations == r2.evaluations
        if r1.candidate is not None:
            assert allclose(r1.candidate.Bbar, r2.candidate.Bbar, tol=0.0)

    def test_warm_start_degree_must_fit_template(self, case1):
        t = SynthTemplate(cert_degree=2, budget=10, seed=0)
        with pytest.raises(ValueError, match="exceeds template degree"):
            search(case1.model, t, warm_start=case1.candidate)

    def test_two_state_controller_above_certificate_degree(self, case1):
        # the isotropic basis reaches the controller degree, not only Bbar's
        model, _ = _two_state(case1)
        t = SynthTemplate(cert_degree=2, controller_degree=3, budget=40, seed=2)
        r = search(model, t)
        assert isinstance(r, SynthResult)
        assert r.evaluations == 40
        assert [p.degree() for p in r.candidate.nu_flow + r.candidate.nu_jump] == [3, 3]

    def test_warm_start_controllers_must_match_inputs(self, case1):
        c = case1.candidate
        twice = replace(c, nu_flow=c.nu_flow * 2, nu_jump=c.nu_jump * 2)
        with pytest.raises(ValueError, match="must have 1 outputs"):
            search(case1.model, SynthTemplate(budget=10), warm_start=twice)

    def test_budget_exhaustion_is_structured(self, case2):
        # one evaluation cannot repair anything: structured infeasible result
        t = SynthTemplate(budget=1, seed=0)
        r = search(case2.model, t, warm_start=case2.candidate)
        assert not r.feasible
        assert r.status == "infeasible-at-budget"
        assert r.candidate is not None

    def test_positive_margin_without_proof_is_not_feasible(self, monkeypatch):
        # every condition holds but nonneg, which the enclosure leaves
        # inconclusive at a positive margin: no positive score stops the
        # search, which spends its budget, and the final check_cbc refuses
        # to call the candidate feasible
        from shscert import synth

        x, y, zero = Polynomial.variable("x"), Polynomial.variable("y"), Polynomial.constant(0.0)
        model = SHSModel(
            state_vars=("x", "y"), input_vars=("u",), noise_vars=("w",),
            f1=(zero, zero), sigma=((zero,), (zero,)), rho=((), ()), rates=(),
            f2=(x, y), noise=NoiseConfig((NoiseMoments.standard_normal(4),)),
            jump=JumpParams(0.1, 1, 3),
            X=IntervalBox({"x": (0.0, 8.0), "y": (0.0, 8.0)}),
            X0=IntervalBox({"x": (0.0, 1.0), "y": (0.0, 1.0)}),
            Xu=IntervalBox({"x": (7.0, 8.0), "y": (0.0, 1.0)}),
        )
        cand = CbcCandidate((x - y) ** 2 + 1e-9, 0.0, 1.0, 0.1, 0.1, 2.0, 10.0, (zero,), (zero,))
        rep = check_cbc(model, cand)
        assert [c.status for c in rep.conditions] == ["holds"] * 4 + ["inconclusive"]
        assert rep["nonneg"].margin == margin_objective(model, cand) == 1e-9
        monkeypatch.setattr(synth._Search, "build", lambda self, theta: cand)
        r = search(model, SynthTemplate(budget=50, seed=0))
        assert (r.feasible, r.status, r.margin, r.evaluations) == (
            False, "infeasible-at-budget", 1e-9, 50
        )

    def test_proved_candidate_is_checked_once(self, case1, monkeypatch):
        # the check that proves the repaired candidate is the one reported
        from shscert import synth

        reports = []

        def recorded(*args):
            reports.append(check_cbc(*args))
            return reports[-1]

        monkeypatch.setattr(synth, "check_cbc", recorded)
        r = search(case1.model, SynthTemplate(budget=100_000, seed=1), warm_start=case1.candidate)
        assert r.feasible and len(reports) == 1
        assert r.margin == reports[0].min_margin

    def test_exhausted_search_checks_nothing_again(self, case2, monkeypatch):
        # no score of this search turns positive, so nothing is checked, and
        # the best score is the reported margin
        from shscert import synth

        reports = []

        def recorded(*args):
            reports.append(check_cbc(*args))
            return reports[-1]

        monkeypatch.setattr(synth, "check_cbc", recorded)
        r = search(case2.model, SynthTemplate(budget=100, seed=1), warm_start=case2.candidate)
        assert (r.status, r.evaluations, reports) == ("infeasible-at-budget", 100, [])
        assert r.margin == float.fromhex("-0x1.87ba57284f2f4p+28")

    def test_invalid_trials_rank_below_every_candidate(self, case2):
        # every real score of this random-start search lies far below -1e9;
        # a theta that builds no candidate must not outrank them
        r = search(case2.model, SynthTemplate(budget=150, seed=0))
        assert (r.status, r.evaluations) == ("infeasible-at-budget", 150)
        assert r.candidate is not None and r.margin < -1e9
        assert r.margin == check_cbc(case2.model, r.candidate).min_margin

    def test_evaluation_decides_only_changed_conditions(self, case2, monkeypatch):
        # a golden-section step moves one constant or coefficient, so most
        # evaluations decide one condition again; the re-verification decides five
        from shscert import certify

        decisions = 0
        original = certify.nonneg_on_box

        def counted(*args, **kwargs):
            nonlocal decisions
            decisions += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(certify, "nonneg_on_box", counted)
        r = search(case2.model, SynthTemplate(budget=100, seed=5), warm_start=case2.candidate)
        assert r.evaluations == 100
        assert decisions <= 2 * r.evaluations + 5


class TestPinnedResults:
    """Warm-started searches give the same bits as before the search
    started reusing its previous evaluation's work."""

    def test_case1_repair(self, case1):
        r = search(case1.model, SynthTemplate(budget=100_000, seed=1), warm_start=case1.candidate)
        assert (r.status, r.feasible, r.evaluations, r.restarts) == ("feasible", True, 315, 0)
        assert r.margin == float.fromhex("0x1.1c41b4eafe700p-11")

    def test_case2_budget_search(self, case2):
        r = search(case2.model, SynthTemplate(budget=100, seed=1), warm_start=case2.candidate)
        assert (r.status, r.evaluations, r.restarts) == ("infeasible-at-budget", 100, 0)
        assert r.margin == float.fromhex("-0x1.87ba57284f2f4p+28")
