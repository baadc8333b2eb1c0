from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shscert
from shscert import Polynomial, load_case
from shscert.certify import CbcCandidate
from shscert.cli import main
from shscert.model import NoiseConfig, SHSModel
from shscert.poly import IntervalBox, NoiseMoments
from shscert import JumpParams


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    case = load_case(1)
    (root / "model1.json").write_text(case.model.to_json())
    (root / "cand1.json").write_text(case.candidate.to_json())
    return root


@pytest.fixture(scope="module")
def easy_files(tmp_path_factory, ):
    from conftest import scalar_model

    root = tmp_path_factory.mktemp("easy")
    x = Polynomial.variable("x")
    nu = Polynomial.variable("nu")
    model = scalar_model(
        f1=-1.0 * x + 0.0 * nu, f2=0.5 * x, sigma=0.0, rho=0.0, rate=0.0,
        X=(-2.0, 10.0), X0=(-0.5, 0.5), Xu=(8.0, 10.0),
    )
    cand = CbcCandidate(
        x**2, 1.0, 0.5, 0.5, 0.01, 0.3, 60.0,
        (Polynomial.constant(0.0),), (Polynomial.constant(0.0),),
    )
    (root / "model.json").write_text(model.to_json())
    (root / "cand.json").write_text(cand.to_json())
    return root


@pytest.fixture(scope="module")
def inconclusive_files(tmp_path_factory):
    """Two-dimensional model: the Bernstein enclosure cannot certify the
    tight nonnegativity condition (B touches zero at a corner of X) and
    reports inconclusive."""
    root = tmp_path_factory.mktemp("inconclusive")
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    nu = Polynomial.variable("nu")
    w = Polynomial.variable("varsigma")
    model = SHSModel(
        state_vars=("x", "y"), input_vars=("nu",), noise_vars=("varsigma",),
        f1=(-1.0 * x + 0.0 * nu, -1.0 * y),
        sigma=((Polynomial.constant(0.0),), (Polynomial.constant(0.0),)),
        rho=((Polynomial.constant(0.0),), (Polynomial.constant(0.0),)),
        rates=(0.0,),
        f2=(0.0 * x + 0.0 * w, 0.0 * y),
        noise=NoiseConfig((NoiseMoments.standard_normal(8),)),
        jump=JumpParams(0.1, 1, 7),
        X=IntervalBox({"x": (-1, 5), "y": (-1, 5)}),
        X0=IntervalBox({"x": (0, 0), "y": (0, 0)}),
        Xu=IntervalBox({"x": (3, 4), "y": (3, 4)}),
    )
    B = (x - y) ** 2 + x + y + 2.0
    cand = CbcCandidate(
        B, 1.0, 0.5, 2.5, 2.5, 2.5, 7.0,
        (Polynomial.constant(0.0),), (Polynomial.constant(0.0),),
    )
    (root / "model.json").write_text(model.to_json())
    (root / "cand.json").write_text(cand.to_json())
    return root


def run_bounded(argv: list[str], timeout: float = 60.0) -> tuple[int, str]:
    """Run the CLI in a subprocess and return its exit code and stderr; a
    command that hangs fails the test instead of stalling the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(shscert.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "shscert.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stderr


class TestVerify:
    def test_failing_conditions_exit_one(self, artifacts, tmp_path):
        code = main([
            "verify", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--out", str(tmp_path),
        ])
        assert code == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        names = [c["condition"] for c in report["conditions"]]
        assert names == ["initial", "unsafe", "flow", "jump", "nonneg"]
        assert not report["all_hold"]

    def test_all_holding_exit_zero(self, easy_files, tmp_path):
        code = main([
            "verify", str(easy_files / "model.json"), str(easy_files / "cand.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0

    def test_inconclusive_exit_two(self, inconclusive_files, tmp_path):
        code = main([
            "verify", str(inconclusive_files / "model.json"),
            str(inconclusive_files / "cand.json"), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        statuses = {c["condition"]: c["status"] for c in report["conditions"]}
        assert "fails" not in statuses.values()
        assert "inconclusive" in statuses.values()

    def test_nan_certificate_exit_two(self, artifacts, tmp_path, capsys):
        doc = json.loads((artifacts / "cand1.json").read_text())
        doc["Bbar"]["terms"][0]["coef"] = math.nan
        bad = tmp_path / "cand_nan.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "verify", str(artifacts / "model1.json"), str(bad), "--out", str(tmp_path),
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "holds" not in out and out.count("inconclusive margin=nan") == 5

    def test_malformed_json_exit_three(self, artifacts, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vars": [')
        code = main([
            "verify", str(bad), str(artifacts / "cand1.json"), "--out", str(tmp_path),
        ])
        assert code == 3
        assert "line" in capsys.readouterr().err

    def test_violated_candidate_invariant_exit_three(self, artifacts, tmp_path, capsys):
        doc = json.loads((artifacts / "cand1.json").read_text())
        doc["etabar"] = doc["alphabar"]  # breaks etabar > alphabar
        bad = tmp_path / "cand_bad.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "verify", str(artifacts / "model1.json"), str(bad), "--out", str(tmp_path),
        ])
        assert code == 3
        assert "etabar > alphabar" in capsys.readouterr().err

    def test_domain_flag(self, artifacts, tmp_path):
        code = main([
            "verify", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--domain", "x=0:1", "--out", str(tmp_path),
        ])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["domain"] == {"x": [0.0, 1.0]}
        assert code in (0, 1, 2)

    def test_manifest_written(self, artifacts, tmp_path):
        main([
            "verify", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--out", str(tmp_path), "--seed", "5",
        ])
        manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
        assert manifest["command"] == "verify"
        assert manifest["seed"] == 5
        assert len(manifest["inputs"]) == 2
        assert all(len(h) == 64 for h in manifest["inputs"].values())
        assert "wall_clock_s" in manifest
        assert str(tmp_path / "verify_report.json") in manifest["outputs"]

    @pytest.mark.parametrize(
        "files, names, exit_code",
        [
            ("easy_files", ("model.json", "cand.json"), 0),
            ("artifacts", ("model1.json", "cand1.json"), 1),
            ("inconclusive_files", ("model.json", "cand.json"), 2),
        ],
        ids=["exit0", "exit1", "exit2"],
    )
    def test_manifest_hashes_the_input_bytes(self, request, tmp_path, files, names, exit_code):
        paths = [request.getfixturevalue(files) / name for name in names]
        code = main(["verify", *map(str, paths), "--out", str(tmp_path)])
        assert code == exit_code
        manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
        }

    def test_no_manifest_on_malformed_input(self, artifacts, tmp_path):
        # the model loads, the candidate does not
        bad = tmp_path / "bad.json"
        bad.write_text('{"vars": [')
        out = tmp_path / "out"
        code = main(["verify", str(artifacts / "model1.json"), str(bad), "--out", str(out)])
        assert code == 3
        assert not (out / "verify_manifest.json").exists()


class TestMalformedInput:
    """Malformed input files exit 3 with a message, never a traceback."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"X": [0, 8]}, "X: expected an object, got list"),
            ({"jump": {"tau": 0.1, "q1": 3, "q2": 2}}, "need 1 <= q1 <= q2"),
            (
                {"noise": {**load_case(1).model.noise.to_dict(), "sampler": "laplace"}},
                "unknown noise sampler 'laplace'",
            ),
            (
                {"noise": {"moments": [[1, 0, 4, 0, 48]], "sampler": "gaussian"}},
                "noise moments[0] differ from the gaussian sampler's N(0,1)",
            ),
            ({"X": {"x": [math.nan, 8]}}, "X: non-finite interval for 'x': [nan, 8.0]"),
            ({"jump": {"tau": math.nan, "q1": 1, "q2": 7}}, "tau must be finite and positive"),
            ({"jump": {"tau": math.inf, "q1": 1, "q2": 7}}, "tau must be finite and positive"),
            ({"lambda": [math.nan]}, "lambda[0] must be finite and >= 0, got nan"),
            (
                {
                    "X": {"x": [0, 8], "z": [0, 1]},
                    "X0": {"x": [0, 1.5], "z": [0, 1]},
                    "Xu": {"x": [7, 8], "z": [0, 1]},
                },
                "X has interval(s) for non-state variable(s) ['z']; "
                "X0 has interval(s) for non-state variable(s) ['z']; "
                "Xu has interval(s) for non-state variable(s) ['z']",
            ),
            (
                # the jump noise renamed to the input's name: f2 then reads
                # the input where the noise was
                {
                    "noise_vars": ["nu"],
                    "f2": [
                        load_case(1).model.f2[0]
                        .substitute({"varsigma": Polynomial.variable("nu")})
                        .to_dict()
                    ],
                },
                "variable name(s) ['nu'] declared more than once",
            ),
            # n and m are derived from the variables: a document may only repeat them
            ({"n": 2}, "n: written 2, derived 1"),
            ({"m": 0}, "m: written 0, derived 1"),
        ],
        ids=[
            "box-as-list", "q1-above-q2", "unknown-sampler", "wide-moments", "nan-bound",
            "nan-tau", "infinite-tau", "nan-rate", "box-names-non-state", "repeated-name",
            "wrong-n", "wrong-m",
        ],
    )
    def test_bad_model_exit_three(self, artifacts, tmp_path, capsys, changes, message):
        doc = json.loads((artifacts / "model1.json").read_text())
        doc.update(changes)
        bad = tmp_path / "model_bad.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "verify", str(bad), str(artifacts / "cand1.json"), "--out", str(tmp_path),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid model") and message in err

    @pytest.mark.parametrize(
        "template",
        [
            {"ranges": {"kappa1": 5}},
            [1, 2],
            {"budget": None},
            {"budget": float("inf")},
            {"ranges": {"kappa1": [0, float("inf")]}},
            {"seed": -1},
            {"ranges": {"kapa1": [5, 6]}},
        ],
        ids=[
            "range-as-number", "list", "null-budget", "infinite-budget", "infinite-range",
            "negative-seed", "unknown-range-name",
        ],
    )
    def test_bad_template_exit_three(self, artifacts, tmp_path, capsys, template):
        bad = tmp_path / "template.json"
        bad.write_text(json.dumps(template))
        code = main([
            "synthesize", str(artifacts / "model1.json"), "--template", str(bad),
            "--out", str(tmp_path),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: invalid template {bad}")

    @pytest.mark.parametrize(
        "target, edit, key",
        [
            ("model", lambda d: d["model"]["jump"].update(q1=1.5), "q1"),
            ("model", lambda d: d["model"]["jump"].update(q1="1"), "q1"),
            ("model", lambda d: d["model"]["jump"].update(q1=True), "q1"),
            ("model", lambda d: d["model"]["jump"].update(tau="0.1"), "tau"),
            ("model", lambda d: d["model"].update(state_vars=[1]), "state_vars"),
            ("template", lambda d: d["template"].update(budget=2.9), "budget"),
            ("template", lambda d: d["template"].update(seed=3.7), "seed"),
            ("candidate", lambda d: d["candidate"]["Bbar"].update(vars="x"), "vars"),
            ("candidate", lambda d: d["candidate"]["Bbar"]["terms"][0].update(exp=[1.5]), "exp"),
            ("candidate", lambda d: d["candidate"]["Bbar"]["terms"][0].update(coef="1"), "coef"),
            ("candidate", lambda d: d["candidate"].update(etabar=False), "etabar"),
        ],
        ids=[
            "fractional-int", "int-as-string", "int-as-bool", "float-as-string", "str-as-int",
            "fractional-budget", "fractional-seed", "vars-as-string", "fractional-exponent",
            "coefficient-as-string", "float-as-bool",
        ],
    )
    def test_wrong_scalar_type_exit_three(self, artifacts, tmp_path, capsys, target, edit, key):
        docs = {
            "model": json.loads((artifacts / "model1.json").read_text()),
            "candidate": json.loads((artifacts / "cand1.json").read_text()),
            "template": {},
        }
        edit(docs)
        paths = {}
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        out = tmp_path / "out"
        if target == "template":
            argv = ["synthesize", str(paths["model"]), "--template", str(paths["template"])]
        else:
            argv = ["verify", str(paths["model"]), str(paths["candidate"])]
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid {target} {paths[target]}: ") and f"{key}: " in err
        assert not list(out.glob("*_manifest.json"))

    @pytest.mark.parametrize("name, value", [("gamma1", math.nan), ("etabar", math.inf)])
    def test_non_finite_constant_exit_three(self, artifacts, tmp_path, capsys, name, value):
        doc = json.loads((artifacts / "cand1.json").read_text())
        doc[name] = value
        bad = tmp_path / "cand_bad.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "verify", str(artifacts / "model1.json"), str(bad), "--out", str(tmp_path),
        ])
        assert code == 3
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "domain, message",
        [
            ("x=5:1", "invalid domain 'x=5:1': empty interval for 'x': [5.0, 1.0]"),
            ("y=0:1", "domain 'y=0:1' misses state variable(s) ['x']"),
            ("x=0:8,y=0:1", "domain 'x=0:8,y=0:1' names non-state variable(s) ['y']"),
        ],
        ids=["reversed", "other-variable", "extra-variable"],
    )
    def test_bad_domain_exit_three(self, artifacts, tmp_path, capsys, domain, message):
        code = main([
            "verify", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--domain", domain, "--out", str(tmp_path),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("where", ["domain", "model"])
    def test_infinite_bound_exit_three(self, artifacts, tmp_path, where):
        # an unbounded interval once sent the root isolation into an endless
        # bisection, so this runs in a subprocess with a timeout
        model, extra = artifacts / "model1.json", ["--domain", "x=0:inf"]
        if where == "model":
            doc = json.loads(model.read_text())
            doc["X"] = {"x": [0, math.inf]}
            model, extra = tmp_path / "model_inf.json", []
            model.write_text(json.dumps(doc))
        code, err = run_bounded([
            "verify", str(model), str(artifacts / "cand1.json"), *extra,
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert "non-finite interval for 'x': [0.0, inf]" in err

    def test_missing_template_exit_three(self, artifacts, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main([
            "synthesize", str(artifacts / "model1.json"), "--template", str(missing),
            "--out", str(tmp_path),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")

    @pytest.mark.parametrize(
        "misfit, message",
        [
            ("degree", "warm-start degree 4 exceeds template degree 2"),
            ("two-state", "warm start is only supported for one-dimensional state"),
            ("controllers", "warm-start controllers must have 1 outputs"),
        ],
        ids=["above-template-degree", "two-state-model", "controller-count"],
    )
    def test_misfit_warm_start_exit_three(self, artifacts, tmp_path, capsys, misfit, message):
        from test_certify import _two_state

        model, cand, extra = artifacts / "model1.json", artifacts / "cand1.json", []
        if misfit == "degree":
            template = tmp_path / "template.json"
            template.write_text(json.dumps({"cert_degree": 2}))
            extra = ["--template", str(template)]
        elif misfit == "two-state":
            model = tmp_path / "model2.json"
            model.write_text(_two_state(load_case(1))[0].to_json())
        else:
            doc = json.loads(cand.read_text())
            doc["nu_flow"] *= 2
            doc["nu_jump"] *= 2
            cand = tmp_path / "cand_two_inputs.json"
            cand.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main([
            "synthesize", str(model), "--warm-start", str(cand), *extra, "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: invalid warm start {cand}: {message}\n"
        assert not (out / "synthesize_manifest.json").exists()

    @pytest.mark.parametrize("x0", ["nan", "inf", "1e400"])
    def test_non_finite_start_exit_three(self, artifacts, tmp_path, capsys, x0):
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--x0", x0, "--runs", "1", "--horizon", "3", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "--x0 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "simulate_manifest.json").exists()
        assert not list(tmp_path.glob("trajectory_*"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "cand1.json", "--runs", "1", "--horizon", "3"], "master_seed must be >= 0"),
            (["synthesize"], "invalid --seed -1: seed must be >= 0"),
        ],
        ids=["simulate", "synthesize"],
    )
    def test_negative_seed_exit_three(self, artifacts, tmp_path, capsys, argv, message):
        command, *rest = argv
        rest = [str(artifacts / a) if a.endswith(".json") else a for a in rest]
        code = main([
            command, str(artifacts / "model1.json"), *rest, "--seed", "-1",
            "--out", str(tmp_path),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "repro"])
    def test_seed_past_the_key_exit_three(self, artifacts, tmp_path, capsys, command):
        # the stream key holds 64 bits of seed; nothing folds a larger one
        inputs = [str(artifacts / "model1.json"), str(artifacts / "cand1.json")]
        head = ["repro", "1"] if command == "repro" else ["simulate", *inputs, "--horizon", "3"]
        for seed, code in ((2**64, 3), (2**64 - 1, 0)):
            out = tmp_path / str(seed)
            assert main([*head, "--runs", "2", "--seed", str(seed), "--out", str(out)]) == code
            err = capsys.readouterr().err
            if code:
                assert err == "error: master_seed must be < 2**64\n"
                assert not out.exists() or list(out.iterdir()) == []
            else:
                manifest = json.loads((out / f"{command}_manifest.json").read_text())
                assert manifest["seed"] == seed

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--runs", "0"], "n_trajectories must be >= 1"),
            (["--substeps", "0"], "substeps_per_tau must be >= 1"),
            (["--schedule", "bogus"], "cannot parse schedule 'bogus'"),
            (["--schedule", "fixed:9"], "schedule gap 9 outside admissible range"),
            (["--seed", "-1"], "master_seed must be >= 0"),
            (["--keep-trajectories", "-1"], "--keep-trajectories must be >= 0, got -1"),
        ],
        ids=[
            "no-runs", "no-substeps", "unparsed-schedule", "inadmissible-gap", "negative-seed",
            "negative-keep",
        ],
    )
    def test_bad_repro_run_options_exit_three(self, tmp_path, capsys, option, message):
        # checked before the first stage, as simulate checks them
        code = main(["repro", "1", *option, "--out", str(tmp_path)])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_keep_trajectories_exit_three(self, artifacts, tmp_path, capsys):
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--runs", "2", "--horizon", "3", "--keep-trajectories", "-1", "--out", str(tmp_path),
        ])
        assert code == 3
        assert capsys.readouterr().err == "error: --keep-trajectories must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []


class TestStartUp:
    def test_cli_and_cases_load_without_scipy(self):
        # scipy.stats alone costs about a second of every start-up, and
        # numpy.random about 10 ms
        code = (
            "import sys, shscert.cli\n"
            "from shscert.cases import list_cases, load_case\n"
            "[load_case(c) for c in list_cases()]\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.special', 'numpy.random')"
            " if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(shscert.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_one_state_commands_load_no_numpy(self, artifacts, inconclusive_files, tmp_path):
        # numpy costs about half of start-up; only the commands that compute
        # with arrays load it, and they still run after the others in one process
        code = (
            "import sys, shscert.cli\n"
            "from shscert.cases import list_cases, load_case\n"
            "main = shscert.cli.main\n"
            "model, cand, model2, cand2, out = sys.argv[1:]\n"
            "acbc = out + '/acbc.json'\n"
            "[load_case(c) for c in list_cases()]\n"
            "codes = [\n"
            "    main(['verify', model, cand, '--out', out]),\n"
            "    main(['augment', model, cand, '--eps2', '8', '--check', '--out', out]),\n"
            "    main(['bound', acbc, '--horizon', '100', '--out', out]),\n"
            "]\n"
            "loaded = sorted(m for m in ('numpy', 'shscert.sim', 'shscert.synth') if m in sys.modules)\n"
            "after = [\n"
            "    main(['simulate', model, cand, '--acbc', acbc, '--runs', '25', '--horizon', '40',\n"
            "          '--out', out]),\n"
            "    main(['verify', model2, cand2, '--out', out]),\n"
            "]\n"
            "print(codes, loaded, after)\n"
        )
        files = [artifacts / "model1.json", artifacts / "cand1.json"]
        files += [inconclusive_files / "model.json", inconclusive_files / "cand.json", tmp_path]
        env = {**os.environ, "PYTHONPATH": str(Path(shscert.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code, *map(str, files)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # the block engine runs 25 trajectories; the two-state verify is
        # inconclusive after the Bernstein enclosure's subdivision
        assert proc.stdout.splitlines()[-1] == "[1, 1, 0] [] [0, 2]"

    def test_every_public_name_resolves(self):
        from shscert import sim, synth

        namespace: dict = {}
        exec("from shscert import *", namespace)
        for name in shscert.__all__:
            assert getattr(shscert, name) is namespace[name]
        assert shscert.monte_carlo is sim.monte_carlo and shscert.search is synth.search
        assert set(shscert.__all__) <= set(dir(shscert))
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            shscert.no_such_name


class TestPipelineRoundTrip:
    def test_artifacts_flow_between_commands(self, artifacts, tmp_path):
        out1 = tmp_path / "augment"
        code = main([
            "augment", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--eps2", "8", "--out", str(out1),
        ])
        assert code == 0
        acbc_path = out1 / "acbc.json"
        acbc = json.loads(acbc_path.read_text())
        assert acbc["regime"] == "R1"

        out2 = tmp_path / "bound"
        code = main(["bound", str(acbc_path), "--horizon", "100", "--out", str(out2)])
        assert code == 0
        sb = json.loads((out2 / "bound.json").read_text())
        assert abs(sb["safety_probability"] - 0.9443) < 1e-3

        out3 = tmp_path / "sim"
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--acbc", str(acbc_path), "--runs", "25", "--horizon", "40",
            "--schedule", "fixed:3", "--seed", "7", "--out", str(out3),
            "--keep-trajectories", "2",
        ])
        assert code == 0
        mc = json.loads((out3 / "mc_report.json").read_text())
        assert mc["n_trajectories"] == 25
        csv_text = (out3 / "trajectory_0000.csv").read_text()
        assert csv_text.splitlines()[0] == "k,time,z,scenario,x_1,B_value"

    def test_bad_schedule_exit_three(self, artifacts, tmp_path):
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--schedule", "fixed:12", "--out", str(tmp_path),
        ])
        assert code == 3

    @pytest.mark.parametrize("text", ["uniform:7", "uniform:", "cyclic:1,,2", "cyclic:2,", "fixed: 2"])
    def test_non_canonical_schedule_exit_three(self, artifacts, tmp_path, capsys, text):
        # only the text describe() writes is read, so no part of it is dropped
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--schedule", text, "--out", str(tmp_path),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: cannot parse schedule {text!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_fixed_start_flag(self, artifacts, tmp_path):
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--x0", "1.25", "--runs", "1", "--horizon", "3",
            "--out", str(tmp_path), "--keep-trajectories", "1",
        ])
        assert code == 0
        first = (tmp_path / "trajectory_0000.csv").read_text().splitlines()[1]
        assert first.split(",")[4] == "1.25"

    @pytest.mark.parametrize("x0", ["1.0,2.0", "0.5,1,2"])
    def test_fixed_start_of_wrong_length_exit_three(self, artifacts, tmp_path, capsys, x0):
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--x0", x0, "--runs", "1", "--horizon", "3", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "--x0 needs 1 component(s)" in capsys.readouterr().err

    def test_augment_failure_exit_one(self, artifacts, tmp_path, capsys):
        doc = json.loads((artifacts / "cand1.json").read_text())
        doc["kappa1"] = -0.1
        doc["kappa2"] = 1.5  # uncovered regime quadrant
        bad = tmp_path / "cand_regime.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "augment", str(artifacts / "model1.json"), str(bad), "--out", str(tmp_path),
        ])
        assert code == 1
        assert "unsupported regime" in capsys.readouterr().err

    def test_augment_check_failing_lift_exit_one(self, artifacts, tmp_path):
        code = main([
            "augment", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--check", "--out", str(tmp_path),
        ])
        assert code == 1
        assert not json.loads((tmp_path / "acbc_report.json").read_text())["all_hold"]
        manifest = json.loads((tmp_path / "augment_manifest.json").read_text())
        assert manifest["outputs"] == [str(tmp_path / "acbc.json"), str(tmp_path / "acbc_report.json")]

    def test_augment_check_proved_lift_exit_zero(self, tmp_path):
        from test_acceptance import proved_certificate

        model = load_case(1).model
        (tmp_path / "model.json").write_text(model.to_json())
        (tmp_path / "cand.json").write_text(proved_certificate(model).to_json())
        out = tmp_path / "out"
        code = main([
            "augment", str(tmp_path / "model.json"), str(tmp_path / "cand.json"),
            "--check", "--out", str(out),
        ])
        assert code == 0
        assert json.loads((out / "acbc_report.json").read_text())["all_hold"]
        assert (out / "acbc.json").exists() and (out / "augment_manifest.json").exists()

    def test_augment_overflow_exit_one(self, artifacts, tmp_path, capsys):
        doc = json.loads((artifacts / "cand1.json").read_text())
        doc["kappa1"] = 1e6
        doc["kappa2"] = 1.5  # R2: exp(kappa1 tau eps1 q1) overflows
        bad = tmp_path / "cand_steep.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "augment", str(artifacts / "model1.json"), str(bad), "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("construction failed: lifted constants overflow")
        assert not (tmp_path / "acbc.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # a derived constant must be the one derived: {derived} is its value
            ("gamma", math.nan, "gamma: written nan, derived {derived!r}"),
            ("gamma", math.inf, "gamma: written inf, derived {derived!r}"),
            ("kappa", 1.5, "kappa: written 1.5, derived {derived!r}"),
            ("kappa", 0.0, "kappa: written 0.0, derived {derived!r}"),
            ("gamma", -0.001, "gamma: written -0.001, derived {derived!r}"),
            ("alpha", 5.0, "alpha: written 5.0, derived {derived!r}"),
            ("eps1", 1.0, "eps1 must be in (0, 1), got 1.0"),
            ("eps2", 7.0, "eps2 must be finite and exceed q2=7, got 7.0"),
            ("regime", "R4", "regime: written 'R4', derived 'R1'"),
            ("regime", "R3", "regime: written 'R3', derived 'R1'"),
            ("eps2", math.inf, "eps2 must be finite and exceed q2=7, got inf"),
        ],
        ids=[
            "nan", "inf", "kappa-above-one", "zero-kappa", "negative-gamma", "alpha-above-eta",
            "eps1-at-one", "eps2-at-q2", "unknown-regime", "other-regime", "infinite-eps2",
        ],
    )
    def test_non_finite_lifted_constant_exit_three(
        self, artifacts, tmp_path, capsys, key, value, message
    ):
        out1 = tmp_path / "a"
        main([
            "augment", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--out", str(out1),
        ])
        doc = json.loads((out1 / "acbc.json").read_text())
        message = message.format(derived=doc[key])
        doc[key] = value
        bad = tmp_path / "acbc_bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["bound", str(bad), "--horizon", "100", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == f"error: invalid lifted certificate {bad}: {message}\n"
        assert not (tmp_path / "bound.json").exists()
        # kappa = 1.5 once reached compute_delta in a Monte Carlo run
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--acbc", str(bad), "--runs", "30", "--out", str(tmp_path / "sim"),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: invalid lifted certificate {bad}: {message}\n"

    def test_bound_precondition_exit_one(self, artifacts, tmp_path, capsys):
        out1 = tmp_path / "a"
        main([
            "augment", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--eps2", "8", "--out", str(out1),
        ])
        code = main([
            "bound", str(out1 / "acbc.json"), "--horizon", "-5", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "horizon" in capsys.readouterr().err

    def test_json_trajectory_format(self, artifacts, tmp_path):
        code = main([
            "simulate", str(artifacts / "model1.json"), str(artifacts / "cand1.json"),
            "--runs", "1", "--horizon", "5", "--format", "json",
            "--out", str(tmp_path), "--keep-trajectories", "1",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "trajectory_0000.json").read_text())
        assert doc[0]["k"] == 0 and doc[0]["scenario"] == "init"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "m.json", "c.json"],
            ["augment", "m.json", "c.json"],
            ["bound", "a.json", "--horizon", "10"],
            ["synthesize", "m.json"],
            ["repro", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_only_on_simulate(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "json", "--out", str(tmp_path)])
        assert exc.value.code == 3
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_missing_argument_exit_three(self, capsys):
        # a usage error is malformed input, not exit 2 ("inconclusive")
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 3
        assert "required: model, candidate" in capsys.readouterr().err


class TestDerivedLiftedConstants:
    """acbc.json states the lifted constants, but they follow from its base,
    jump parameters and slacks: a file that states others is malformed."""

    @pytest.fixture(scope="class")
    def case2_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("case2")
        case = load_case(2)
        (root / "model.json").write_text(case.model.to_json())
        (root / "cand.json").write_text(case.candidate.to_json())
        code = main([
            "augment", str(root / "model.json"), str(root / "cand.json"),
            "--eps1", str(case.eps1), "--eps2", str(case.eps2), "--out", str(root),
        ])
        assert code == 0
        return root

    def test_unedited_file_bounds(self, case2_files, tmp_path, capsys):
        code = main(["bound", str(case2_files / "acbc.json"), "--horizon", "20", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("delta=0.0389")

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"kappa": 0.5, "gamma": 0.0}, "kappa: written 0.5, derived {kappa!r}"),
            ({"base": {"gamma2": 0.5}}, "gamma: written {gamma!r}, derived 0.5"),
            (
                {"base": {"kappa1": 1e6}},
                "lifted constants overflow for kappa1=1000000.0, kappa2=1.00001, tau=0.1",
            ),
        ],
        ids=["stated-bound", "raised-gamma2", "overflowing-weights"],
    )
    def test_hand_edited_file_exit_three(self, case2_files, tmp_path, capsys, edit, message):
        doc = json.loads((case2_files / "acbc.json").read_text())
        message = message.format(**doc)
        for key, value in edit.items():
            doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        bad = tmp_path / "acbc_edited.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "bound"
        assert main(["bound", str(bad), "--horizon", "20", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: invalid lifted certificate {bad}: {message}\n"
        assert list(out.iterdir()) == []
        out = tmp_path / "sim"
        code = main([
            "simulate", str(case2_files / "model.json"), str(case2_files / "cand.json"),
            "--acbc", str(bad), "--runs", "1", "--horizon", "5", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: invalid lifted certificate {bad}: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("runs", ["1", "40"])
    def test_lifted_certificate_for_other_jump_exit_three(self, case2_files, tmp_path, capsys, runs):
        # weights for q2 = 7 cannot weigh the counter of a model with q2 = 12
        doc = json.loads((case2_files / "model.json").read_text())
        doc["jump"]["q2"] = 12
        (tmp_path / "model12.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main([
            "simulate", str(tmp_path / "model12.json"), str(case2_files / "cand.json"),
            "--acbc", str(case2_files / "acbc.json"), "--schedule", "fixed:12",
            "--runs", runs, "--horizon", "20", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: the lifted certificate's jump parameters JumpParams(tau=0.1, q1=1, q2=7) "
            "differ from the model's JumpParams(tau=0.1, q1=1, q2=12)\n"
        )
        assert list(out.iterdir()) == []


class TestSimulateBlowUp:
    @pytest.fixture(scope="class")
    def cubic_files(self, tmp_path_factory):
        """dx = x^3 dt from x0 = 10: the state leaves the floats in one period."""
        from conftest import scalar_model
        from shscert import construct_acbc

        root = tmp_path_factory.mktemp("cubic")
        x = Polynomial.variable("x")
        nu = Polynomial.variable("nu")
        model = scalar_model(
            f1=x**3 + 0.0 * nu, f2=x, sigma=0.0, rho=0.0, rate=0.0,
            X=(0.0, 20.0), X0=(10.0, 10.0), Xu=(15.0, 20.0),
        )
        cand = CbcCandidate(
            x**2, 1.0, 0.5, 0.5, 0.01, 0.3, 60.0,
            (Polynomial.constant(0.0),), (Polynomial.constant(0.0),),
        )
        (root / "model.json").write_text(model.to_json())
        (root / "cand.json").write_text(cand.to_json())
        acbc = construct_acbc(cand, model.jump, 0.1, 8.0)
        (root / "acbc.json").write_text(json.dumps(acbc.to_dict()))
        return root

    @pytest.mark.parametrize("runs", ["1", "12"])
    def test_blow_up_exits_one_with_manifest(self, cubic_files, tmp_path, capsys, runs):
        code = main([
            "simulate", str(cubic_files / "model.json"), str(cubic_files / "cand.json"),
            "--acbc", str(cubic_files / "acbc.json"), "--runs", runs, "--horizon", "5",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "simulate failed: state became non-finite at substep" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert not list(tmp_path.glob("trajectory_*"))


class TestSynthesizeCommand:
    def test_warm_start_repair(self, artifacts, tmp_path):
        code = main([
            "synthesize", str(artifacts / "model1.json"),
            "--warm-start", str(artifacts / "cand1.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "synth_report.json").read_text())
        assert report["feasible"] is True
        cand = json.loads((tmp_path / "synthesized_candidate.json").read_text())
        assert max(sum(t["exp"]) for t in cand["Bbar"]["terms"]) == 4


class TestRepro:
    def test_case1_smoke(self, tmp_path, capsys):
        code = main(["repro", "1", "--runs", "40", "--seed", "3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[bound] safety >= 0.944342" in out
        summary = json.loads((tmp_path / "case1_summary.json").read_text())
        assert summary["bound_rounded"]["safety_probability"] == pytest.approx(0.9443, abs=1e-4)
        assert summary["monte_carlo"]["n_trajectories"] == 40
        assert (tmp_path / "case1_traj_00.csv").exists()

    def test_unknown_case_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["repro", "9", "--out", str(tmp_path)])
