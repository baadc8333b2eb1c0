from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from shscert import (
    CbcCandidate,
    CbcReport,
    Polynomial,
    SosMultipliers,
    assemble_sos,
    check_acbc_conditions,
    check_cbc,
    construct_acbc,
    flow_step,
    generator,
    jump_expectation,
    load_case,
)
from shscert.poly import IntervalBox

from conftest import allclose, period_noise, scalar_model

X = Polynomial.variable("x")


class TestGenerator:
    def test_pure_drift(self):
        m = scalar_model(f1=-X, f2=0.5 * X, sigma=0.0, rho=0.0, rate=0.0)
        got = generator(m, X**2, (Polynomial.constant(0.0),))
        assert allclose(got, -2 * X**2)

    def test_constant_reset_linear_certificate(self):
        m = scalar_model(f1=0.0 * X, f2=0.5 * X, sigma=0.3, rho=0.7, rate=0.5)
        got = generator(m, X, (Polynomial.constant(0.0),))
        # drift and diffusion vanish; Poisson shift contributes rate * reset
        assert allclose(got, Polynomial.constant(0.5 * 0.7))

    def test_case_study_value_at_origin(self, case1):
        B = case1.candidate.Bbar
        gen = generator(case1.model, B, case1.candidate.nu_flow)
        oracle = (
            B.derivative("x").eval({"x": 0.0}) * 1.5
            + 0.18 * B.derivative("x").derivative("x").eval({"x": 0.0})
            + 0.5 * (B.eval({"x": 0.5}) - B.eval({"x": 0.0}))
        )
        assert gen.eval({"x": 0.0}) == pytest.approx(oracle, abs=1e-12)
        assert gen.eval({"x": 0.0}) == pytest.approx(-0.1112, abs=2e-3)

    def test_symbolic_input_retained(self, case1):
        gen = generator(case1.model, case1.candidate.Bbar, None)
        assert "nu" in gen.effective_vars()

    def test_linearity(self, case1):
        rng = np.random.default_rng(5)
        m, ctrl = case1.model, case1.candidate.nu_flow
        for _ in range(10):
            p = Polynomial.univariate("x", rng.uniform(-1, 1, 5))
            q = Polynomial.univariate("x", rng.uniform(-1, 1, 5))
            a, b = rng.uniform(-2, 2, 2)
            lhs = generator(m, a * p + b * q, ctrl)
            rhs = a * generator(m, p, ctrl) + b * generator(m, q, ctrl)
            assert allclose(lhs, rhs, tol=1e-10)

    def test_constant_certificate_annihilated(self, case1):
        gen = generator(case1.model, Polynomial.constant(3.7), case1.candidate.nu_flow)
        assert gen.is_zero()

    def test_two_dimensional_tensor_assembly(self):
        # coupled diffusion, two reset columns, rotational drift; the whole
        # expression was expanded by hand
        from shscert.model import NoiseConfig, SHSModel
        from shscert.poly import IntervalBox, NoiseMoments
        from shscert import JumpParams

        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        nu = Polynomial.variable("nu")
        one = Polynomial.constant(1.0)
        zero = Polynomial.constant(0.0)
        m = SHSModel(
            state_vars=("x", "y"), input_vars=("nu",), noise_vars=("varsigma",),
            f1=(y + 0.0 * nu, -1.0 * x),
            sigma=((one, zero), (x, Polynomial.constant(2.0))),
            rho=((one, zero), (zero, y)),
            rates=(0.5, 2.0),
            f2=(x, y),
            noise=NoiseConfig((NoiseMoments.standard_normal(8),)),
            jump=JumpParams(0.1, 1, 7),
            X=IntervalBox({"x": (-1, 1), "y": (-1, 1)}),
            X0=IntervalBox({"x": (0, 0), "y": (0, 0)}),
            Xu=IntervalBox({"x": (1, 1), "y": (1, 1)}),
        )
        B = x**2 * y**2
        got = generator(m, B, (Polynomial.constant(0.0),))
        drift = 2 * x * y**3 - 2 * x**3 * y
        diffusion = y**2 + 4 * x**2 * y + x**4 + 4 * x**2
        shifts = 0.5 * (2 * x + 1) * y**2 + 6 * x**2 * y**2
        assert allclose(got, drift + diffusion + shifts, tol=1e-12)

    def test_dynkin_consistency_deterministic_flow(self):
        # without diffusion or resets, dB/dt along the flow equals the generator
        nu = Polynomial.variable("nu")
        m = scalar_model(f1=-(X**3) + 1.0 + 0.0 * nu, f2=X, sigma=0.0, rho=0.0, rate=0.0)
        B = Polynomial.univariate("x", [0.0369, -0.0849, 0.0814, -0.0345, 0.0054])
        ctrl = (Polynomial.constant(0.0),)
        gen = generator(m, B, ctrl)
        rng = np.random.default_rng(0)
        h = 1e-3
        path = [(0.3,)]
        for _ in range(101):
            path.append(flow_step(m, path[-1], (0.0,), h, 1, *period_noise(m, rng, h, 1)))
        x_prev, x_mid, x_next = path[-3], path[-2], path[-1]
        fd = (B.eval({"x": x_next[0]}) - B.eval({"x": x_prev[0]})) / (2 * h)
        expected = gen.eval({"x": x_mid[0]})
        assert fd == pytest.approx(expected, rel=1e-3)


class TestJumpExpectation:
    def test_additive_noise(self):
        m = scalar_model(f1=-X, f2=X + Polynomial.variable("varsigma"))
        got = jump_expectation(m, X**2, (Polynomial.constant(0.0),))
        assert allclose(got, X**2 + 1.0)

    def test_collapsing_jump(self, case1):
        m = scalar_model(f1=-X, f2=Polynomial.constant(0.0))
        B = case1.candidate.Bbar
        got = jump_expectation(m, B, (Polynomial.constant(0.0),))
        assert allclose(got, Polynomial.constant(B.eval({"x": 0.0})))

    def test_constant_certificate_passes_through(self, case1):
        got = jump_expectation(case1.model, Polynomial.constant(2.5), case1.candidate.nu_jump)
        assert allclose(got, Polynomial.constant(2.5))

    def test_case_study_degree_and_monte_carlo(self, case1):
        je = jump_expectation(case1.model, case1.candidate.Bbar, case1.candidate.nu_jump)
        assert je.degree() == 12
        assert je.effective_vars() == ("x",)
        # Monte Carlo oracle at the origin: E[B(0.156 + 0.5 W)]
        rng = np.random.default_rng(123)
        w = rng.standard_normal(1_000_000)
        y = 0.156 + 0.5 * w
        coeffs_desc = [0.0054, -0.0345, 0.0814, -0.0849, 0.0369]
        vals = np.polyval(coeffs_desc, y)
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert je.eval({"x": 0.0}) == pytest.approx(float(np.mean(vals)), abs=3 * se)

    def test_two_noise_components(self):
        from shscert.model import NoiseConfig, SHSModel
        from shscert.poly import IntervalBox, NoiseMoments
        from shscert import JumpParams

        x = Polynomial.variable("x")
        nu = Polynomial.variable("nu")
        u, w = Polynomial.variable("u"), Polynomial.variable("w")
        m = SHSModel(
            state_vars=("x",), input_vars=("nu",), noise_vars=("u", "w"),
            f1=(-x + 0.0 * nu,),
            sigma=((Polynomial.constant(0.0),),),
            rho=((Polynomial.constant(0.0),),),
            rates=(0.0,),
            f2=(x + u + 2.0 * w,),
            noise=NoiseConfig((NoiseMoments.standard_normal(4), NoiseMoments.standard_normal(4))),
            jump=JumpParams(0.1, 1, 7),
            X=IntervalBox({"x": (0, 8)}),
            X0=IntervalBox({"x": (0, 1)}),
            Xu=IntervalBox({"x": (7, 8)}),
        )
        got = jump_expectation(m, x**2, (Polynomial.constant(0.0),))
        # E[(x + U + 2W)^2] = x^2 + Var(U) + 4 Var(W)
        assert allclose(got, x**2 + 5.0)

    def test_monte_carlo_consistency_random_states(self, case1):
        # vectorized sampling against the closed-form expectation polynomial
        je = jump_expectation(case1.model, case1.candidate.Bbar, case1.candidate.nu_jump)
        rng = np.random.default_rng(77)
        coeffs_desc = [0.0054, -0.0345, 0.0814, -0.0849, 0.0369]
        for x0 in rng.uniform(0.0, 8.0, 100):
            nu = -0.06145 * x0 + 2.6
            w = rng.standard_normal(100_000)
            y = 0.01 * x0**3 + 0.06 * nu + 0.5 * w
            vals = np.polyval(coeffs_desc, y)
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            assert je.eval({"x": float(x0)}) == pytest.approx(
                float(np.mean(vals)), abs=4 * se + 1e-12
            )


class TestCandidateInvariants:
    def test_separation_required(self):
        with pytest.raises(ValueError, match="etabar > alphabar"):
            CbcCandidate(X**2, 0.1, 0.5, 0.0, 0.0, 1.0, 1.0, (X,), (X,))

    def test_kappa2_positive(self):
        with pytest.raises(ValueError, match="kappa2"):
            CbcCandidate(X**2, 0.1, 0.0, 0.0, 0.0, 0.1, 1.0, (X,), (X,))

    @pytest.mark.parametrize(
        "name", ["kappa1", "kappa2", "gamma1", "gamma2", "alphabar", "etabar"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_constants_finite(self, case1, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(case1.candidate, **{name: value})

    def test_json_round_trip(self, case1):
        c = case1.candidate
        again = CbcCandidate.from_dict(json.loads(c.to_json()))
        assert allclose(again.Bbar, c.Bbar, tol=0.0)
        assert again.kappa1 == c.kappa1

    def test_controller_dimension_mismatch(self, case1):
        with pytest.raises(ValueError, match="input dimension"):
            generator(case1.model, case1.candidate.Bbar, ())
        with pytest.raises(ValueError, match="input dimension"):
            jump_expectation(case1.model, case1.candidate.Bbar, (X, X))


class TestCheckCbc:
    def test_case_study_level_sets(self, case1):
        rep = check_cbc(case1.model, case1.candidate)
        assert rep["initial"].status == "holds"
        assert rep["initial"].margin == pytest.approx(0.13 - 0.0369, abs=1e-9)
        assert rep["unsafe"].status == "holds"
        assert rep["unsafe"].margin == pytest.approx(0.1631, abs=1e-3)
        assert rep["nonneg"].status == "holds"
        assert rep["nonneg"].margin > 0

    def test_raised_unsafe_level_fails_at_left_edge(self, case1):
        c = case1.candidate
        raised = CbcCandidate(
            c.Bbar, c.kappa1, c.kappa2, c.gamma1, c.gamma2, c.alphabar, 5.0,
            c.nu_flow, c.nu_jump,
        )
        rep = check_cbc(case1.model, raised)
        assert rep["unsafe"].status == "fails"
        assert rep["unsafe"].witness["x"] == pytest.approx(7.0, abs=1e-6)
        assert rep["unsafe"].margin == pytest.approx(4.5631 - 5.0, abs=1e-4)

    def test_zero_certificate_fails_unsafe(self, case1):
        zero = CbcCandidate(
            Polynomial((), {}), 0.1, 0.5, 0.0, 0.0, 0.0, 1.0,
            case1.candidate.nu_flow, case1.candidate.nu_jump,
        )
        rep = check_cbc(case1.model, zero)
        assert rep["unsafe"].status == "fails"

    def test_domain_override(self, case1):
        rep = check_cbc(case1.model, case1.candidate, IntervalBox({"x": (0.0, 1.0)}))
        assert rep.domain == IntervalBox({"x": (0.0, 1.0)})

    def test_fully_feasible_candidate(self, easy_model, easy_candidate):
        rep = check_cbc(easy_model, easy_candidate)
        assert rep.all_hold
        assert rep.min_margin > 0

    def test_nan_certificate_holds_nowhere(self, case1):
        # a NaN coefficient makes every value NaN; no condition may hold
        c = case1.candidate
        terms = dict(c.Bbar.terms)
        terms[next(iter(terms))] = math.nan
        rep = check_cbc(case1.model, replace(c, Bbar=Polynomial(c.Bbar.vars, terms)))
        assert {cond.status for cond in rep.conditions} == {"inconclusive"}
        assert math.isnan(rep.min_margin)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_min_margin_is_nan_wherever_the_nan_sits(self, case1, at):
        rep = check_cbc(case1.model, case1.candidate)
        margins = [1.0, 2.0, 3.0, 4.0, 5.0]
        margins[at] = math.nan
        conds = tuple(
            replace(cond, margin=m)
            for cond, m in zip(rep.conditions, margins, strict=True)
        )
        assert math.isnan(replace(rep, conditions=conds).min_margin)

    def test_nothing_outside_certify_decides_a_condition(self):
        # every status comes from certify's one report helper, so the rule
        # that decides "holds" can change in one place
        import re
        from pathlib import Path

        from shscert import certify

        sources = list(Path(certify.__file__).parent.glob("*.py"))
        assert len(sources) > 5
        for path in sources:
            if path.name != "certify.py":
                assert not re.search(r"(?<!def )\bnonneg_on_box\s*\(", path.read_text()), path


class TestReportCodec:
    @pytest.mark.parametrize("cid", ["1", "2", "3"])
    def test_reports_read_back_equal(self, cid):
        case = load_case(cid)
        acbc = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
        reports = [check_cbc(case.model, case.candidate), check_acbc_conditions(case.model, acbc)]
        assert any(c.witness is not None for c in reports[0].conditions)
        for r in reports:
            assert CbcReport.from_dict(json.loads(json.dumps(r.to_dict()))) == r


class TestAssembleSos:
    def test_degenerate_multipliers_reduce_to_level_expression(self, case1):
        exprs = assemble_sos(case1.model, case1.candidate)
        assert allclose(exprs["initial"], 0.13 - case1.candidate.Bbar)
        assert allclose(exprs["unsafe"], case1.candidate.Bbar - 4.4)

    def test_controller_difference_vanishes_when_substituted(self, case1):
        exprs = assemble_sos(case1.model, case1.candidate, substitute_controllers=True)
        assert "nu" not in exprs["flow"].effective_vars()
        assert "nu" not in exprs["jump"].effective_vars()

    def test_flow_expression_matches_generator(self, case1):
        c = case1.candidate
        exprs = assemble_sos(case1.model, c, substitute_controllers=True)
        gen = generator(case1.model, c.Bbar, c.nu_flow)
        want = -gen - 0.01 * c.Bbar + 0.0015
        assert allclose(exprs["flow"], want, tol=1e-12)

    def test_symbolic_flow_expression_keeps_input(self, case1):
        exprs = assemble_sos(case1.model, case1.candidate)
        assert "nu" in exprs["flow"].effective_vars()

    def test_nonzero_multipliers_enter_products(self, case1):
        mult = SosMultipliers(initial=(Polynomial.constant(1.0), Polynomial.constant(1.0)))
        exprs = assemble_sos(case1.model, case1.candidate, mult)
        g0 = case1.model.X0.inequalities()
        want = 0.13 - case1.candidate.Bbar - g0[0] - g0[1]
        assert allclose(exprs["initial"], want)

    def test_multiplier_dimension_mismatch(self, case1):
        mult = SosMultipliers(initial=(Polynomial.constant(1.0),))
        with pytest.raises(ValueError, match="multipliers"):
            assemble_sos(case1.model, case1.candidate, mult)


CONSTANTS = ("kappa1", "kappa2", "gamma1", "gamma2", "alphabar", "etabar")


def _combine(basis, coeffs):
    return sum((float(c) * basis[k] for k, c in enumerate(coeffs)), Polynomial.constant(0.0))


def _two_state(case):
    """A weakly coupled two-state copy of a bundled case: the checker takes
    the multivariate Bernstein enclosure on it."""
    from shscert.model import SHSModel

    m = case.model
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    model = SHSModel(
        state_vars=("x", "y"), input_vars=m.input_vars, noise_vars=m.noise_vars,
        f1=(m.f1[0] + 0.01 * (y - x), m.f1[0].substitute({"x": y}) + 0.01 * (x - y)),
        sigma=(m.sigma[0], m.sigma[0]), rho=(m.rho[0], m.rho[0]), rates=m.rates,
        f2=(m.f2[0], m.f2[0].substitute({"x": y})), noise=m.noise, jump=m.jump,
        X=IntervalBox({"x": m.X["x"], "y": m.X["x"]}),
        X0=IntervalBox({"x": m.X0["x"], "y": m.X0["x"]}),
        Xu=IntervalBox({"x": m.Xu["x"], "y": m.X["x"]}),
    )
    return model, [x**k + y**k for k in range(5)]


# the inputs each condition reads: the checker computes again exactly the
# margins of the conditions one of whose inputs changed bit for bit
READS = {
    "initial": ("Bbar", "alphabar"),
    "unsafe": ("Bbar", "etabar"),
    "flow": ("Bbar", "nu_flow", "kappa1", "gamma1"),
    "jump": ("Bbar", "nu_jump", "kappa2", "gamma2"),
    "nonneg": ("Bbar",),
}


def _input_bits(c):
    """Each input of a candidate, as exact as repr keeps floats and as
    ordered as its terms."""

    def bits(p):
        return p.vars, tuple((e, repr(v)) for e, v in p.terms.items())

    out = {name: repr(getattr(c, name)) for name in CONSTANTS}
    out.update(Bbar=bits(c.Bbar), nu_flow=tuple(map(bits, c.nu_flow)),
               nu_jump=tuple(map(bits, c.nu_jump)))
    return out


class TestCbcChecker:
    """One checker fed a walk of candidates, each one coordinate away from
    the previous, scores each with the least margin a fresh check_cbc
    reports, and computes again only the conditions that read the moved
    input."""

    def walk(self, model, cand, basis, steps, seed, monkeypatch):
        from shscert import certify, poly

        calls = {"generator": 0, "interval_candidates": 0, "nonneg_on_box": 0}
        for module, name in ((certify, "generator"), (poly, "interval_candidates"),
                             (certify, "nonneg_on_box")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        rng = np.random.default_rng(seed)
        var = model.state_vars[0]
        coeffs = {
            "Bbar": (
                cand.Bbar.dense_coeffs(var) if model.n == 1 else [0.2, -0.3, 0.2, -0.05, 0.01]
            ),
            "nu_flow": cand.nu_flow[0].dense_coeffs(var),
            "nu_jump": cand.nu_jump[0].dense_coeffs(var),
        }
        consts = {name: getattr(cand, name) for name in CONSTANTS}

        def build():
            return CbcCandidate(
                Bbar=_combine(basis, coeffs["Bbar"]),
                nu_flow=(_combine(basis, coeffs["nu_flow"]),),
                nu_jump=(_combine(basis, coeffs["nu_jump"]),),
                **consts,
            )

        # every kind of move first, then random ones
        moves = [*CONSTANTS, "Bbar", "nu_flow", "nu_jump", "revisit", "reorder"]
        kinds = [*CONSTANTS] * 2 + ["Bbar", "nu_flow", "nu_jump", "revisit"]
        moves += list(rng.choice(kinds, steps - len(moves)))
        checker = certify.CbcChecker(model)
        start = build()
        checker.margin(start)
        bits, previous_move = _input_bits(start), "start"
        seen = []
        for move in moves:
            if move == "revisit":
                c = seen[int(rng.integers(len(seen) - 2))]
            elif move == "reorder":
                # equal under Polynomial.__eq__, but the terms come in reverse order
                c = seen[-1]
                c = replace(c, Bbar=Polynomial(c.Bbar.vars, dict(reversed(c.Bbar.terms.items()))))
                assert c.Bbar == seen[-1].Bbar
            else:
                while True:
                    before = (dict(consts), {k: list(v) for k, v in coeffs.items()})
                    if move == "kappa1":
                        consts[move] += 0.05 * rng.standard_normal()
                    elif move in consts:
                        consts[move] = abs(consts[move]) * rng.uniform(0.8, 1.25)
                    else:
                        k = int(rng.integers(len(coeffs[move])))
                        step = 0.01 * max(1.0, abs(coeffs[move][k]))
                        coeffs[move][k] += step * rng.standard_normal()
                    try:
                        c = build()
                        break
                    except ValueError:
                        consts, coeffs = before
            seen.append(c)
            previous_bits, bits = bits, _input_bits(c)
            changed = {k for k, v in bits.items() if v != previous_bits[k]}
            if {move, previous_move}.isdisjoint({"revisit", "reorder"}):
                assert changed == {move}  # one coordinate away from the previous
            previous_move = move
            expected = {name for name, inputs in READS.items() if changed.intersection(inputs)}
            decided = calls["nonneg_on_box"]
            keys = {name: slot.key for name, slot in checker._last.items()}
            margin = checker.margin(c)
            # a condition computed again holds the key of its new inputs
            again = {name for name, key in keys.items() if checker._last[name].key != key}
            assert (again, calls["nonneg_on_box"] - decided) == (expected, len(expected)), move
            by_checker = dict(calls)
            fresh = check_cbc(model, c).min_margin
            assert (math.isnan(margin) and math.isnan(fresh)) or margin.hex() == fresh.hex(), move
            calls.update(by_checker)
        return calls, len(moves)

    @pytest.mark.parametrize("cid", ["1", "2", "3"])
    def test_walk_on_bundled_case(self, cid, monkeypatch):
        from shscert import poly

        case = load_case(cid)
        basis = [Polynomial.variable("x") ** k for k in range(5)]
        poly._critical_points.cache_clear()
        calls, steps = self.walk(case.model, case.candidate, basis, 200, int(cid), monkeypatch)
        # the memos were used: most evaluations reused the generator and most
        # univariate conditions the critical points of an earlier one
        assert 0 < calls["generator"] < steps / 2
        assert 0 < calls["interval_candidates"] < 5 * steps / 2

    def test_walk_on_two_state_model(self, case1, monkeypatch):
        model, basis = _two_state(case1)
        calls, steps = self.walk(model, case1.candidate, basis, 24, 4, monkeypatch)
        assert 0 < calls["generator"] < steps / 2

    @pytest.mark.parametrize("cid", ["1", "2", "3"])
    def test_reports_equal_with_cold_and_warm_memo(self, cid):
        from shscert import poly

        case = load_case(cid)
        acbc = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)

        def reports():
            # repr keeps every bit of a margin or witness, and the sign of zero
            return json.dumps([check_cbc(case.model, case.candidate).to_dict(),
                               check_acbc_conditions(case.model, acbc).to_dict()])

        poly._critical_points.cache_clear()
        cold = reports()
        hits = poly._critical_points.cache_info().hits
        warm = reports()
        assert poly._critical_points.cache_info().hits > hits
        assert warm == cold
