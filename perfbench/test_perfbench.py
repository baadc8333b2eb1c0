"""Tests of the benchmark itself: python -m pytest perfbench

Each workload runs at its real sizes for ``--seconds 1``, which its least
number of operations bounds. The subprocess tests check that every metric
BENCHMARK.json names is printed with its unit, and that the traced replay
produced the same outputs as the untraced pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "mc-repro": {"repro_traj_per_s"},
    "search-repair": {"repair_s", "search_evals_per_s"},
    "cli-session": {"certify_ms_p50", "certify_ms_p95", "simulate_ms_p50", "simulate_ms_p99"},
}
COMMON = {"setup_s", "peak_rss_mb", "ops_failed_share"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    return report, result


def assert_metrics(printed: dict, spec: list[dict]) -> None:
    assert set(printed) == {m["name"] for m in spec}
    for m in spec:
        assert printed[m["name"]]["unit"] == m["unit"]
        assert isinstance(printed[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    report, result = parse(bench(workload, 0))
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert set(report["metrics"]) == COMMON | NAMED[workload]
    for m in report["metrics"].values():
        assert m["unit"] and m["better"] in ("lower", "higher")
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "git_sha"):
        assert key in report["machine"]
    assert report["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_accounts_for_its_time(workload):
    report, result = parse(bench(workload, 1))
    assert_metrics(result["metrics"], SPEC["per_layer"])
    assert not [f for f in report["failures"] if "traced outputs differ" in f]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0 <= m["bench.unattributed_s"] < 0.05 * m["trace.wall_s"]
    assert layer_self + m["bench.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert (ROOT / report["trace_file"]).is_file()


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("mc-repro", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tr = tracing.Tracer()
    inner = tr.wrap("poly.inner", lambda: None)
    outer = tr.wrap("certify.outer", lambda: (inner(), inner()))
    with tr.window(0):
        outer()
    # outer spans ticks 0..5, its two children 1..2 and 3..4
    assert tr.stats["certify.outer"].total_s == 5
    assert tr.stats["certify.outer"].self_s == 3
    assert tr.stats["poly.inner"].calls == 2
    assert tr.stats["poly.inner"].self_s == 2
    parents = {name: parent for _, parent, _, name, _, _ in tr.spans}
    assert parents["certify.outer"] is None and parents["poly.inner"] is not None


def test_install_wraps_every_binding_and_uninstall_restores():
    import shscert
    from shscert import certify, cli, synth
    from shscert.poly import Polynomial

    originals = (certify.check_cbc, Polynomial.__mul__)
    tr = tracing.Tracer()
    tr.install()
    try:
        for owner in (shscert, certify, synth, cli):
            assert owner.check_cbc is not originals[0]
            assert owner.check_cbc.__wrapped__ is originals[0]
        assert Polynomial.__rmul__ is Polynomial.__mul__ is not originals[1]
    finally:
        tr.uninstall()
    assert shscert.check_cbc is synth.check_cbc is cli.check_cbc is originals[0]
    assert Polynomial.__rmul__ is Polynomial.__mul__ is originals[1]


def raising(exc):
    def main(argv):
        raise exc
    return main


def test_run_cli_names_each_escape(monkeypatch):
    import workloads
    from shscert import cli, sim

    clock = workloads.Clock(None, 0)
    for exc, code in ((sim.BlowUpError(7), "blowup"), (KeyError("x"), "raised:KeyError"), (SystemExit(2), 2)):
        monkeypatch.setattr(cli, "main", raising(exc))
        assert workloads.run_cli(clock, ["simulate"])[0] == code
    assert workloads.repro_blew_up(f"repro failed at stage simulate: {sim.BlowUpError(7)}")
    assert not workloads.repro_blew_up("repro failed at stage load: no such case")


def test_blowups_are_outcomes_and_other_escapes_fail(monkeypatch, tmp_path):
    import workloads
    from shscert import cli, sim

    substep = iter([3, 3, 3, 4])

    def repro_blows_up(argv):
        print(f"repro failed at stage simulate: {sim.BlowUpError(next(substep))}", file=sys.stderr)
        return 1

    monkeypatch.setattr(cli, "main", repro_blows_up)
    repro = [op(workloads.Clock(None, i)) for i, op in zip(range(4), workloads.McRepro(3, tmp_path).ops())]
    assert [r.outcome for r in repro] == ["case1:blowup", "case2:blowup", "case3:blowup", "case1:blowup"]
    assert not any(r.errors for r in repro[:3])
    assert "differ from the first repetition" in repro[3].errors[0]

    session = workloads.CliSession(3, tmp_path)
    for main, outcome, fails in (
        (raising(sim.BlowUpError(3)), "simulate:blowup", False),
        (raising(KeyError("x")), "simulate:raised:KeyError", True),
        (lambda argv: 3, "simulate:3", True),
    ):
        monkeypatch.setattr(cli, "main", main)
        r = session._simulate(workloads.Clock(None, 0), "3", 0)
        assert r.outcome == outcome and bool(r.errors) == fails
