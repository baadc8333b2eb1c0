"""Golden bytes: the sha256 of every serialized output on the bundled cases.

Determinism between two runs of one build is checked elsewhere; these
digests also pin the format between builds, so a change to a field name,
a key order, a number's rendering or a computed value shows here. A digest
that changes on purpose is updated here together with the change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from shscert import (
    BlowUpError,
    SimConfig,
    SynthTemplate,
    check_acbc_conditions,
    check_cbc,
    compute_delta_for,
    construct_acbc,
    load_case,
    monte_carlo,
    search,
    simulate,
    trajectory_csv,
)
from shscert.cli import main


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _acbc(case):
    return construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)


def _monte_carlo(case) -> str:
    config = SimConfig(
        horizon_T=case.horizon, n_trajectories=50, master_seed=7, schedule=case.schedule
    )
    return _dump(monte_carlo(case.model, case.candidate, _acbc(case), config).to_dict())


def _synth(case) -> str:
    template = SynthTemplate(budget=100, seed=7)
    return _dump(search(case.model, template, warm_start=case.candidate).to_dict())


def _simulate_json(case, tmp_path) -> str:
    files = {}
    for key, obj in (("model", case.model), ("cand", case.candidate), ("acbc", _acbc(case))):
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(obj.to_json())
    out = tmp_path / "out"
    code = main([
        "simulate", str(files["model"]), str(files["cand"]), "--acbc", str(files["acbc"]),
        "--runs", "12", "--horizon", "20", "--seed", "7", "--format", "json",
        "--out", str(out),
    ])
    assert code == 0
    return (out / "trajectory_0000.json").read_text()


OUTPUTS = {
    "model": lambda c, _: c.model.to_json(),
    "candidate": lambda c, _: c.candidate.to_json(),
    "acbc": lambda c, _: _acbc(c).to_json(),
    "check_cbc": lambda c, _: _dump(check_cbc(c.model, c.candidate).to_dict()),
    "check_acbc_conditions": lambda c, _: _dump(
        check_acbc_conditions(c.model, _acbc(c)).to_dict()
    ),
    "compute_delta_for": lambda c, _: _dump(compute_delta_for(_acbc(c), c.horizon).to_dict()),
    "monte_carlo": lambda c, _: _monte_carlo(c),
    "synth_result": lambda c, _: _synth(c),
    "synth_template": lambda c, _: _dump(SynthTemplate().to_dict()),
    "simulate_json": _simulate_json,
}

GOLDEN = {
    "model[1]": "79cfcc3c5e58bdb1d4f5b2e8c5c38ce937454742d4d61ce82ef1220f4222748b",
    "model[2]": "3f68866cace253b933515dda44d7975d49192fafc8dfd222c7c1758bb47fe6b2",
    "model[3]": "340cb055e3ea42ae78889b04475bca68a3dd6d7702b17a4a37fb4daf45f6230c",
    "candidate[1]": "9f5660619f637758c04774efbbc6e941c9dbefee44ed745b4c192fad091d6ae8",
    "candidate[2]": "809657770173f61e7562362167916c5b697ef19efddfb4b6a3b3ebc74634113a",
    "candidate[3]": "62f871a2847434ee1ad476e4457ecc44e8b58ebaf16ab898077b99f4f6978c71",
    "acbc[1]": "23b81fe2509af1082bf76c584124c0c8fb53675157a790de053e38325753924b",
    "acbc[2]": "cbb4ad3ead4368ea35ece78e19e26d2bb4890c785903d4411083b61e435ed4b3",
    "acbc[3]": "4893ced7565ff02ff1063d295d3402c2fc11c953ad13591f6f15b8551dde557a",
    "check_cbc[1]": "ad5ef53ceb8642f423174c3016e3982dcc4b25b0e6687dde63a784262db0a9bc",
    "check_cbc[2]": "ecbcb15a594c49781962f3f13bcf2cf9223b7ccc95fb5f463c3d55f170b615c9",
    "check_cbc[3]": "e018df2b3a3a89d6ddb6d2078080ac3f12315518badd0c29cb8eb3a348e058ca",
    "check_acbc_conditions[1]": "e0ce291b2ff5d1937bb7dd6c40eb576a0d3d073a0f71e08be0da413c640fb27e",
    "check_acbc_conditions[2]": "8ec3770c2d060eadf3cef9918f6cd7709c756cdd47e06a03113bba923dd876e0",
    "check_acbc_conditions[3]": "d0e7eef0085b39b97815965cc1c50c3ad2ea3c0079620aa50df17a91d72f821a",
    "compute_delta_for[1]": "1b0103b22b007eee7cd92ec1139d56b6d592d80dc95fe6e18c4086a43b11421b",
    "compute_delta_for[2]": "7eea4a872696b6065c0ce3165252e481319be5a4b5ad31e594bac4eb5f7d1ba5",
    "compute_delta_for[3]": "7d8f3b6c4e8b8b4d3153c4583bb361077744595e0285944600737f23af93cf52",
    "monte_carlo[1]": "4c4bdf5b7dc135968f5d645fa84f0909104dc9a175a2f53e72d7460a258e94eb",
    "monte_carlo[2]": "ecc0f6ac8fdb5c192d0a7f18786c9abd7fb52cef1d0f11fdc54b8a5ee92315e9",
    "monte_carlo[3]": "123f53e727a399eb5c580ab1161de70c307bab67ac0842667643d3ad6e083ff3",
    "synth_result[1]": "48b5e880695450260ba83a69f34a552375149e6742786a7eb9b8b83e95f77165",
    "synth_result[2]": "906098db8678cb541731fedc749512d81c285cc993d49c1c4ac72f1dfa1f9191",
    "synth_result[3]": "38eb8049ff290c63961ba1f3bfdd34890319b46b859d428d289b9bae0ce45539",
    "synth_template[1]": "789c4de57b7a3a7192bd99f478a8eb33fe48aae9fda7819bf760bb92d2e10907",
    # no case 2: its trajectory 1 blows up under these settings (exit 1)
    "simulate_json[1]": "3f83f776e3f4e9a9052e6d5ece86131c614e267623c33a4228bf8d3f20dea787",
    "simulate_json[3]": "e4d2939111dd7157de05269f9027b668595dfd2b091be861b13421f7dd4d1573",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name, tmp_path):
    kind, _, case_id = name.partition("[")
    text = OUTPUTS[kind](load_case(case_id.rstrip("]")), tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


# The scalar engine alone: one trajectory per case under its bundled
# schedule and lifted certificate, at three seeds.
SIMULATE_CSV = {
    ("1", 0): "e31a4b5afa2809b3344fe4281fca4e12b13e1dfd5bc38c929f953fe6eb2599ab",
    ("1", 1): "084d54523969c1a9f9ebfa901824b7ad84027e189f250f91179f7de495dff11f",
    ("1", 7): "ff7a1137331507de3ae19cf4dfb7610cc05bea112017406d495d391977ebf231",
    ("2", 0): "8527589c546e83fbb5a4269001a0d672e732f6b39902a8e6e764d42ba6c053b0",
    ("2", 1): "8991f04f95dd2ea254ccc6e1f5f7b527efaef0d240c8e2faa48dfc83cd8b8bfe",
    ("2", 7): "74d6c2cf48950bf80cbe443dfa54f40b8950af90a76d20184f44ef23fd8686b1",
    ("3", 0): "38f5526269c5a0f67cea8e94900b5f26c837f44ed1e8f1fe0f81687e2801bc14",
    ("3", 1): "46f31740b2c3bafb3f1e0d4661ee2c9b6c5e76f2f08f2b3d9959e1553bb8e8b1",
    ("3", 7): "523c24a320e14fff5cbe42190867c43efe66ad31da00c13d901e137dac48d5fd",
}


@pytest.mark.parametrize("case_id, seed", sorted(SIMULATE_CSV))
def test_simulate_csv_is_pinned(case_id, seed):
    case = load_case(case_id)
    config = SimConfig(horizon_T=case.horizon, master_seed=seed, schedule=case.schedule)
    traj = simulate(case.model, case.candidate, config, acbc=_acbc(case))
    text = trajectory_csv(case.model, traj)
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_CSV[case_id, seed]


def test_simulate_blow_up_is_pinned():
    """Case 2 under the uniform schedule: trajectory 1 of the
    ``simulate_json`` run above, the first to blow up, stops being finite
    within a flow period."""
    case = load_case("2")
    config = SimConfig(horizon_T=20, master_seed=7)
    simulate(case.model, case.candidate, config, acbc=_acbc(case), traj_index=0)
    with pytest.raises(BlowUpError) as err:
        simulate(case.model, case.candidate, config, acbc=_acbc(case), traj_index=1)
    assert str(err.value) == "state became non-finite at substep 6"
    assert err.value.step == 6
