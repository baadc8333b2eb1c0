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
    "check_acbc_conditions[1]": "fccaf0c34d892c1074c4988211e42b7bd17ece410bf7fea2a96ce6df9f0963c8",
    "check_acbc_conditions[2]": "79df6b399e8d48cbc237652cae7c218203985c58db7f9588aee93329860a47a5",
    "check_acbc_conditions[3]": "af88fa839794233da79b79e6238bb69415b84a755bf2ffc7e65028fa9094263a",
    "compute_delta_for[1]": "1b0103b22b007eee7cd92ec1139d56b6d592d80dc95fe6e18c4086a43b11421b",
    "compute_delta_for[2]": "7eea4a872696b6065c0ce3165252e481319be5a4b5ad31e594bac4eb5f7d1ba5",
    "compute_delta_for[3]": "7d8f3b6c4e8b8b4d3153c4583bb361077744595e0285944600737f23af93cf52",
    "monte_carlo[1]": "4c4bdf5b7dc135968f5d645fa84f0909104dc9a175a2f53e72d7460a258e94eb",
    "monte_carlo[2]": "3867f3e27557674c3d661f43e3a7373cb904434a57734dc67d0bb6cef172c186",
    "monte_carlo[3]": "123f53e727a399eb5c580ab1161de70c307bab67ac0842667643d3ad6e083ff3",
    "synth_result[1]": "48b5e880695450260ba83a69f34a552375149e6742786a7eb9b8b83e95f77165",
    "synth_result[2]": "906098db8678cb541731fedc749512d81c285cc993d49c1c4ac72f1dfa1f9191",
    "synth_result[3]": "38eb8049ff290c63961ba1f3bfdd34890319b46b859d428d289b9bae0ce45539",
    "synth_template[1]": "789c4de57b7a3a7192bd99f478a8eb33fe48aae9fda7819bf760bb92d2e10907",
    # no case 2: its trajectory 3 blows up under these settings (exit 1)
    "simulate_json[1]": "0ff1724119a6b6a25cce138e0e6583426b2b662e84896e6752140c0b3be9d77e",
    "simulate_json[3]": "14c11e9055a4c53863a28f7c9f8f1b1d045a736f59762eb796a9fe09fb5ecd20",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name, tmp_path):
    kind, _, case_id = name.partition("[")
    text = OUTPUTS[kind](load_case(case_id.rstrip("]")), tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


# The scalar engine alone: one trajectory per case under its bundled
# schedule and lifted certificate, at three seeds.
SIMULATE_CSV = {
    ("1", 0): "ba85e97c361b7e5439b51aaed09e526721fe7fda41cf1e3339c9b9c1aa962623",
    ("1", 1): "e2315704b31c9e8b00440fc935888e91fc7a777992c689c4d412f529cecc211b",
    ("1", 7): "ad45009b592b54162a3a61cc2fed7fe9cb36fc254cd6e3c7e9faabaa66480458",
    ("2", 0): "c581baf910e40d55ef294ea21e0eefd8f5ed165087fb7cc560138c7791240ad7",
    ("2", 1): "4d71a2b0520305d9e29d1bcd9db5791b68a2fd3e5198e6fe8941b218e332ba21",
    ("2", 7): "cbc681e0a7633bd47ca6585cc6fa058a193c65d11aac4750fe6f364ec6b15c92",
    ("3", 0): "b5f3d08bfb6fae296bbcd64d8ff3690e5049d69683fdef2398c8cb079b963965",
    ("3", 1): "26de3217662c6e6d6807b00817647a85cec352e4eb255c02c54c9b715a4e48c5",
    ("3", 7): "cba4403133e66648c35f6a7943d15b358a12432432e152172060bb9907b93613",
}


@pytest.mark.parametrize("case_id, seed", sorted(SIMULATE_CSV))
def test_simulate_csv_is_pinned(case_id, seed):
    case = load_case(case_id)
    config = SimConfig(horizon_T=case.horizon, master_seed=seed, schedule=case.schedule)
    traj = simulate(case.model, case.candidate, config, acbc=_acbc(case))
    text = trajectory_csv(case.model, traj)
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_CSV[case_id, seed]


def test_simulate_blow_up_is_pinned():
    """Case 2 under the uniform schedule: trajectory 3 of the
    ``simulate_json`` run above, the first to blow up, stops being finite
    within a flow period."""
    case = load_case("2")
    config = SimConfig(horizon_T=20, master_seed=7)
    for idx in range(3):
        simulate(case.model, case.candidate, config, acbc=_acbc(case), traj_index=idx)
    with pytest.raises(BlowUpError) as err:
        simulate(case.model, case.candidate, config, acbc=_acbc(case), traj_index=3)
    assert str(err.value) == "state became non-finite at substep 6"
    assert err.value.step == 6
