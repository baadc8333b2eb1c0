from __future__ import annotations

import pytest

from shscert import SynthTemplate, check_cbc, margin_objective, search


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
        assert r.candidate.Bbar.allclose(case1.candidate.Bbar, tol=0.0)
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
            assert r1.candidate.Bbar.allclose(r2.candidate.Bbar, tol=0.0)

    def test_warm_start_degree_must_fit_template(self, case1):
        t = SynthTemplate(cert_degree=2, budget=10, seed=0)
        with pytest.raises(ValueError, match="exceeds template degree"):
            search(case1.model, t, warm_start=case1.candidate)

    def test_budget_exhaustion_is_structured(self, case2):
        # one evaluation cannot repair anything: structured infeasible result
        t = SynthTemplate(budget=1, seed=0)
        r = search(case2.model, t, warm_start=case2.candidate)
        assert not r.feasible
        assert r.status == "infeasible-at-budget"
        assert r.candidate is not None


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
