"""tools/bench_pairs.py fails a comparison whose runs were not clean."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(monkeypatch, tmp_path, faults: dict):
    """main over two pairs on fake checkouts ``base`` and ``head``, whose
    runs are clean except that ``faults[(side, seed)]`` updates the result
    of that untraced run."""
    tool = _tool()

    def run_once(checkout, workload, seed, seconds, trace=0):
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {"work_per_s": {"value": 1.0}}}
        report = {"machine": "test"}
        if not trace:
            result.update(faults.get((checkout.name, seed), {}))
            # the calibration halves head's values in the first pair only
            factor = 2.0 if (checkout.name, seed) == ("head", 5) else 1.0
            result["metrics"] = {"work_per_s": {"value": seed / factor}}
            report["raw_metrics"] = {
                "work_per_s": {"value": float(seed)},
                "repro_traj_per_s": {"value": float(seed)},
            }
            report["speed_factor"] = {"median": factor, "min": factor, "max": factor}
        return {"report": report, "result": result}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "git_sha", lambda checkout: "sha")
    (tmp_path / "head").mkdir()
    (tmp_path / "head" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "work_per_s", "better": "higher"}]})
    )
    out = tmp_path / "out.json"
    code = tool.main([
        str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "w",
        "--pairs", "2", "--seed", "5", "--out", str(out),
    ])
    return code, json.loads(out.read_text())


def test_clean_runs_exit_zero(monkeypatch, tmp_path):
    code, doc = _run(monkeypatch, tmp_path, {})
    assert code == 0 and len(doc["workloads"]["w"]["pairs"]) == 2


def test_failed_operations_exit_one_after_writing(monkeypatch, tmp_path, capsys):
    code, doc = _run(monkeypatch, tmp_path, {("head", 6): {"failed": 3}})
    assert code == 1
    assert doc["workloads"]["w"]["pairs"][1]["head_ops"]["failed"] == 3
    assert capsys.readouterr().err == "w seed 6 head: correct True, 3 failed operations\n"


def test_incorrect_run_exits_one(monkeypatch, tmp_path, capsys):
    code, doc = _run(monkeypatch, tmp_path, {("base", 5): {"correct": False}})
    assert code == 1 and doc["workloads"]["w"]["pairs"][0]["base_correct"] is False
    assert capsys.readouterr().err == "w seed 5 base: correct False, 0 failed operations\n"


def test_raw_metrics_and_speed_factor_kept_and_summarized(monkeypatch, tmp_path):
    _, doc = _run(monkeypatch, tmp_path, {})
    entry = doc["workloads"]["w"]
    first, second = entry["pairs"]
    assert first["head"] == {"work_per_s": 2.5} and first["head_speed_factor"] == 2.0
    assert first["head_raw"] == {"work_per_s": 5.0, "repro_traj_per_s": 5.0}
    assert second["base_raw"]["work_per_s"] == 6.0 and second["base_speed_factor"] == 1.0
    # calibrated, head loses the first pair; uncalibrated, it ties both
    assert entry["summary"]["work_per_s"]["head_wins"] == 0
    assert entry["summary"]["work_per_s"]["median_gain"] == -1.25
    raw = entry["raw_summary"]["work_per_s"]
    assert raw["head_wins"] == 0 and raw["median_gain"] == 0.0
    assert raw["base"] == {"median": 5.5, "q1": 5.25, "q3": 5.75}
    assert entry["speed_factor"]["head"]["median"] == 1.5
    assert entry["speed_factor"]["base"]["median"] == 1.0
