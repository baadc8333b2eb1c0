from __future__ import annotations

import json
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from shscert import CaseStudy, JumpParams, JumpSchedule, Polynomial, SHSModel, load_case
from shscert.model import FLOW, JUMP

from conftest import scalar_model


class TestJumpParams:
    def test_valid(self):
        jp = JumpParams(0.1, 1, 7)
        assert jp.tau == 0.1

    def test_gap_order_enforced(self):
        with pytest.raises(ValueError, match="q1 <= q2"):
            JumpParams(0.1, 3, 2)

    def test_tau_positive(self):
        with pytest.raises(ValueError, match="tau"):
            JumpParams(0.0, 1, 2)


class TestValidate:
    """A model that breaks an invariant cannot be built."""

    def test_case_study_model_is_clean(self, case1):
        # rebuilding the model runs every check again
        assert replace(case1.model) == case1.model

    def test_unsafe_box_outside_working_box(self):
        x = Polynomial.variable("x")
        with pytest.raises(ValueError, match="Xu subset of X"):
            scalar_model(f1=-x, f2=0.5 * x, Xu=(9.0, 10.0), X=(0.0, 8.0))

    def test_initial_box_outside_working_box(self):
        x = Polynomial.variable("x")
        with pytest.raises(ValueError, match="X0 subset of X"):
            scalar_model(f1=-x, f2=0.5 * x, X0=(-3.0, 0.0))

    def test_negative_rate(self):
        x = Polynomial.variable("x")
        with pytest.raises(ValueError, match=r"lambda\[0\]"):
            scalar_model(f1=-x, f2=0.5 * x, rate=-0.5)

    def test_undeclared_variable_in_drift(self):
        x = Polynomial.variable("x")
        with pytest.raises(ValueError, match=r"f1\[0\]"):
            scalar_model(f1=-x + Polynomial.variable("y"), f2=0.5 * x)

    def test_gaussian_sampler_needs_standard_normal_moments(self, case1):
        from shscert.model import NoiseConfig
        from shscert.poly import NoiseMoments

        wide = NoiseConfig((NoiseMoments((1.0, 0.0, 4.0, 0.0, 48.0)),))
        message = "noise moments[0] differ from the gaussian sampler's N(0,1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(case1.model, noise=wide)
        short = NoiseConfig((NoiseMoments.standard_normal(4),))
        assert replace(case1.model, noise=short).noise == short

    def test_every_violation_in_one_message(self):
        x = Polynomial.variable("x")
        with pytest.raises(ValueError) as info:
            scalar_model(f1=-x, f2=0.5 * x, rate=-0.5, X0=(-3.0, 0.0))
        assert str(info.value) == "lambda[0] must be finite and >= 0, got -0.5; X0 subset of X violated"

    def test_json_round_trip(self, case1):
        doc = case1.model.to_json()
        again = SHSModel.from_dict(json.loads(doc))
        assert again == case1.model


class TestTransitions:
    @pytest.fixture
    def model(self):
        x = Polynomial.variable("x")
        return scalar_model(f1=-x, f2=0.5 * x, q1=1, q2=7)

    def test_fresh_counter_flows_only(self, model):
        assert model.jump.admits(FLOW, 0)
        assert not model.jump.admits(JUMP, 0)

    def test_saturated_counter_jumps_only(self, model):
        assert not model.jump.admits(FLOW, 7)
        assert model.jump.admits(JUMP, 7)

    def test_both_admissible_in_between(self, model):
        assert model.jump.admits(FLOW, 3)
        assert model.jump.admits(JUMP, 3)

    def test_unknown_scenario_rejected(self, model):
        with pytest.raises(ValueError, match="unknown scenario"):
            model.jump.admits("init", 0)

    def test_counter_stays_in_range_for_any_admissible_run(self, model):
        rng = np.random.default_rng(0)
        q1, q2 = model.jump.q1, model.jump.q2
        for _ in range(50):
            z = 0
            since_eligible = 0
            for _ in range(200):
                flow_ok = model.jump.admits(FLOW, z)
                jump_ok = model.jump.admits(JUMP, z)
                assert flow_ok or jump_ok
                if flow_ok and jump_ok:
                    scenario = FLOW if rng.random() < 0.5 else JUMP
                elif flow_ok:
                    scenario = FLOW
                else:
                    scenario = JUMP
                z = z + 1 if scenario == FLOW else 0
                assert 0 <= z <= q2
                # once eligible, a jump must occur within q2 - q1 + 1 steps
                if z >= q1:
                    since_eligible += 1
                    assert since_eligible <= q2 - q1 + 1
                else:
                    since_eligible = 0


class TestJumpSchedule:
    def test_parse_round_trip(self):
        for text in ("fixed:3", "cyclic:1,7,2", "uniform"):
            assert JumpSchedule.parse(text).describe() == text

    @pytest.mark.parametrize(
        "schedule",
        [JumpSchedule("fixed", (3,)), JumpSchedule("cyclic", (1, 7, 2)), JumpSchedule.uniform()],
    )
    def test_codec_round_trip(self, schedule):
        assert schedule.to_dict() == schedule.describe()
        assert JumpSchedule.from_dict(schedule.to_dict()) == schedule

    def test_codec_reads_only_text(self):
        with pytest.raises(TypeError, match="expected str"):
            JumpSchedule.from_dict(["fixed", 3])

    def test_parse_rejects_garbage(self):
        # only what describe() writes: nothing of the text may be dropped
        for text in ("sometimes", "uniform:7", "uniform:", "cyclic:1,,2", "cyclic:2,", "fixed: 2"):
            with pytest.raises(ValueError, match="cannot parse schedule"):
                JumpSchedule.parse(text)

    def test_policy_shape_validation(self):
        with pytest.raises(ValueError, match="exactly one gap"):
            JumpSchedule("fixed", (1, 2))
        with pytest.raises(ValueError, match="at least one gap"):
            JumpSchedule("cyclic", ())
        with pytest.raises(ValueError, match="no explicit gaps"):
            JumpSchedule("uniform", (3,))

    def test_gap_range_validated(self):
        jp = JumpParams(0.1, 2, 5)
        with pytest.raises(ValueError, match="outside admissible range"):
            JumpSchedule("fixed", (1,)).validate_for(jp)
        JumpSchedule("fixed", (3,)).validate_for(jp)

    def test_fixed_and_cyclic_tables_are_their_own_gaps(self):
        jp = JumpParams(0.1, 1, 7)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert JumpSchedule.parse("fixed:3").gap_table(jp, 20, rng) == (3,)
        assert JumpSchedule.parse("cyclic:2,5").gap_table(jp, 20, rng) == (2, 5)
        assert rng.bit_generator.state == state  # a fixed sequence draws nothing

    def test_uniform_gaps_stay_in_range_and_are_seeded(self):
        jp = JumpParams(0.1, 1, 7)
        sched = JumpSchedule.uniform()
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        g1 = sched.gap_table(jp, 20, rng_a)
        g2 = sched.gap_table(jp, 20, rng_b)
        assert g1 == g2 == np.random.default_rng(42).integers(1, 8, 20).tolist()
        assert all(1 <= g <= 7 for g in g1)
        assert len(set(g1)) > 1

    def test_nothing_outside_model_reads_the_policy(self):
        # a schedule's gaps reach the simulator through gap_table, so a new
        # policy changes model.py alone
        from pathlib import Path

        from shscert import model

        sources = list(Path(model.__file__).parent.glob("*.py"))
        assert len(sources) > 5
        for path in sources:
            if path.name != "model.py":
                assert not re.search(r"\.policy\b", path.read_text()), path


class TestCaseStudy:
    @pytest.mark.parametrize("case_id", ["1", "2", "3"])
    def test_bundled_entry_read_by_the_codec(self, case_id):
        raw = json.loads(resources.files("shscert").joinpath("data/case_study.json").read_text())
        case = load_case(case_id)
        assert case == CaseStudy.from_dict({"case_id": case_id, **raw["cases"][case_id]})
        assert CaseStudy.from_dict(json.loads(case.to_json())) == case
