"""shscert benchmark: one workload per run, single process, single thread.

    python3 perfbench/run.py --workload mc-repro --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
replay. The line before it is ``{"report": ...}`` with the machine, the
inputs, every named metric with its unit and direction, the percentile
sample counts and the outcome counts. Scratch files, the report and the
span trace go to ``.perfbench_out/`` in the checkout. See README.md for
the workloads and what each metric means.
"""

from __future__ import annotations

import os

# Pin numpy's thread pools before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PAIRS = 3  # fresh set-ups of the package, each next to one of the reference

# set-up: import the package and load the bundled cases
SETUP_CODE = """
import time
t0 = time.perf_counter()
import shscert, shscert.cli
from shscert.cases import list_cases, load_case
for c in list_cases():
    load_case(c)
print(repr(time.perf_counter() - t0))
"""

# name -> unit; printed on every workload and gated by BENCHMARK.json
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s", "latency_ms_p50": "ms"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def setup_time() -> float:
    """This process's set-up, measured by the same code as a fresh one's."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(SETUP_CODE, {})
    return float(out.getvalue())


def setup_time_fresh(code: str, path: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(path))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_pairs(reference_code: str) -> list[tuple[float, float]]:
    """(package, reference) set-up times of fresh processes, run back to
    back, which of the two goes first alternating."""
    pairs = []
    for i in range(SETUP_PAIRS):
        if i % 2 == 0:
            own = setup_time_fresh(SETUP_CODE, SRC)
            ref = setup_time_fresh(reference_code, HERE)
        else:
            ref = setup_time_fresh(reference_code, HERE)
            own = setup_time_fresh(SETUP_CODE, SRC)
        pairs.append((own, ref))
    return pairs


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def percentile(values: list[float], p: float) -> dict:
    """Nearest-rank percentile with its sample count and the number of
    samples above it."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(xs)))
    return {"value": xs[rank - 1], "samples": len(xs), "beyond": len(xs) - rank}


def named_metrics(workload: str, results, timed, setup_s: float, rss_mb: float) -> dict:
    """Every end-to-end metric of the workload under its own name;
    ``timed(r)`` is an operation's time in seconds."""

    def of(kind):
        return [r for r in results if r.kind == kind]

    def rate(rs):
        return sum(r.work for r in rs) / sum(timed(r) for r in rs)

    def ms(rs, p):
        return {"unit": "ms", "better": "lower", **percentile([1000 * timed(r) for r in rs], p)}

    failed = sum(1 for r in results if r.errors)
    out = {
        "setup_s": {"value": setup_s, "unit": "s", "better": "lower"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "better": "lower"},
        "ops_failed_share": {"value": failed / len(results), "unit": "share", "better": "lower"},
    }
    if workload == "mc-repro":
        out["repro_traj_per_s"] = {"value": rate(of("repro")), "unit": "1/s", "better": "higher"}
    elif workload == "search-repair":
        out["repair_s"] = {
            "value": statistics.median(timed(r) for r in of("repair")), "unit": "s",
            "better": "lower", "samples": len(of("repair")),
        }
        out["search_evals_per_s"] = {
            "value": rate(of("budget-search")), "unit": "1/s", "better": "higher",
        }
    else:
        out["certify_ms_p50"] = ms(of("certify"), 50)
        out["certify_ms_p95"] = ms(of("certify"), 95)
        out["simulate_ms_p50"] = ms(of("simulate"), 50)
        out["simulate_ms_p99"] = ms(of("simulate"), 99)
    return out


def end_to_end(workload: str, results, timed, setup_s: float, rss_mb: float) -> dict:
    """The workload-independent metrics BENCHMARK.json gates on."""
    if workload == "mc-repro":
        work = results
        latency = [sum(timed(r) for r in results[i : i + 3]) for i in range(0, len(results), 3)]
    elif workload == "search-repair":
        work = [r for r in results if r.kind == "budget-search"]
        latency = [timed(r) for r in results if r.kind == "repair"]
    else:
        work = results
        latency = [timed(r) for r in results if r.kind == "certify"]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "work_per_s": sum(r.work for r in work) / sum(timed(r) for r in work),
        "latency_ms_p50": 1000 * statistics.median(latency),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def scaled(r) -> float:
    return r.wall_s * r.scale


def raw(r) -> float:
    return r.wall_s


def outcomes(results) -> dict:
    counts: dict[str, int] = {}
    for r in results:
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
    return dict(sorted(counts.items()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("mc-repro", "search-repair", "cli-session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shscert" / "__init__.py").is_file():
        return fail(f"no shscert sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    setup_in_process = setup_time()
    import shscert

    if Path(shscert.__file__).resolve().parent != (SRC / "shscert").resolve():
        return fail(f"imported shscert from {shscert.__file__}, not from {SRC}")

    import calibrate
    import workloads

    pairs = setup_pairs(calibrate.SETUP_CODE)
    setup_s = calibrate.NOMINAL_SETUP_S * statistics.median(own / ref for own, ref in pairs)
    cal = calibrate.Calibrator()

    workdir = OUT / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setup_in_process_s": setup_in_process,
        "setup_pairs_s": pairs,
    }

    if args.trace == 0:
        results = workloads.run_loop(wl, args.seconds, cal)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for r in results:
            r.scale = cal.factor(r.start, r.end)
        metrics = end_to_end(args.workload, results, scaled, setup_s, rss_mb)
        report["metrics"] = named_metrics(args.workload, results, scaled, setup_s, rss_mb)
        report["raw_metrics"] = {
            **end_to_end(args.workload, results, raw, setup_s, rss_mb),
            **named_metrics(args.workload, results, raw, setup_s, rss_mb),
        }
        factors = [r.scale for r in results]
        report["speed_factor"] = {
            "median": statistics.median(factors),
            "min": min(factors),
            "max": max(factors),
            "reference_runs": len(cal.durations),
        }
    else:
        # Every operation untraced, then traced: the difference is the
        # tracing overhead, and the outputs must agree.
        tr = tracing.Tracer()
        untraced, traced = workloads.run_paired(wl, args.seconds, tr)
        for i, (a, b) in enumerate(zip(untraced, traced)):
            if a.digest != b.digest:
                b.errors.append(f"op {i}: traced outputs differ from untraced outputs")
        results = untraced + traced
        metrics = tracing_metrics(tr, traced, untraced)
        report["metrics"] = metrics
        report["dominant_layer"] = max(tracing.LAYERS, key=lambda l: metrics[f"{l}.self_s"]["value"])
        trace_file = OUT / f"trace-{args.workload}.jsonl"
        tr.write_jsonl(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))

    failed = [r for r in results if r.errors]
    report["outcomes"] = outcomes(results)
    report["failures"] = [f"{r.kind}: {e}" for r in failed[:10] for e in r.errors[:3]]
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2) + "\n"
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def tracing_metrics(tr, traced, untraced) -> dict:
    """Per-layer metrics of the traced pass, and its overhead against the
    untraced pass of the same operations."""
    stats, c = tr.stats, tr.counters
    none = tracing.NameStats()

    def calls(name):
        return stats.get(name, none).calls

    def total(name):
        return stats.get(name, none).total_s

    def self_s(name):
        return stats.get(name, none).self_s

    def share(num, den):
        return num / den if den else 0.0

    layer_self = {
        layer: sum(s.self_s for n, s in stats.items() if n.split(".", 1)[0] == layer)
        for layer in tracing.LAYERS
    }
    wall = sum(r.wall_s for r in traced)
    untraced_wall = sum(r.wall_s for r in untraced)
    m = {
        "poly.nonneg_on_box.calls": (calls("poly.nonneg_on_box"), "count"),
        "poly.nonneg_on_box.s": (total("poly.nonneg_on_box"), "s"),
        "poly.nonneg_on_box.multivariate.s": (c.multivariate_s, "s"),
        "poly.min_on_interval.calls": (calls("poly.min_on_interval"), "count"),
        "poly.min_on_interval.s": (total("poly.min_on_interval"), "s"),
        "poly.Polynomial.substitute.calls": (calls("poly.Polynomial.substitute"), "count"),
        "poly.Polynomial.substitute.s": (total("poly.Polynomial.substitute"), "s"),
        "poly.Polynomial.expect.s": (total("poly.Polynomial.expect"), "s"),
        "poly.Polynomial.__mul__.calls": (calls("poly.Polynomial.__mul__"), "count"),
        "certify.check_cbc.calls": (calls("certify.check_cbc"), "count"),
        "certify.check_cbc.s": (total("certify.check_cbc"), "s"),
        "certify.generator.s": (total("certify.generator"), "s"),
        "certify.jump_expectation.s": (total("certify.jump_expectation"), "s"),
        "certify.decided_share": (share(c.decided, c.conditions), "share"),
        "augment.check_acbc_conditions.calls": (calls("augment.check_acbc_conditions"), "count"),
        "augment.check_acbc_conditions.s": (total("augment.check_acbc_conditions"), "s"),
        "augment.construct_acbc.s": (total("augment.construct_acbc"), "s"),
        "bound.compute_delta_for.s": (total("bound.compute_delta_for"), "s"),
        "sim.monte_carlo.s": (total("sim.monte_carlo"), "s"),
        "sim.simulate.calls": (calls("sim.simulate"), "count"),
        "sim.simulate.self_s": (self_s("sim.simulate"), "s"),
        "sim.flow_step.calls": (calls("sim.flow_step"), "count"),
        "sim.flow_step.s": (total("sim.flow_step"), "s"),
        "sim.flow_step.us_per_substep": (1e6 * share(total("sim.flow_step"), c.substeps), "us"),
        "sim.jump_step.calls": (calls("sim.jump_step"), "count"),
        "sim.jump_step.s": (total("sim.jump_step"), "s"),
        "sim.trajectory_csv.calls": (calls("sim.trajectory_csv"), "count"),
        "sim.trajectory_csv.s": (total("sim.trajectory_csv"), "s"),
        "sim.useful_traj_share": (share(c.distinct_trajectories, calls("sim.simulate")), "share"),
        "sim.blowups": (c.blowups, "count"),
        "sim.exceed_share": (share(c.exceeded, c.trajectories), "share"),
        "synth.search.calls": (calls("synth.search"), "count"),
        "synth.search.s": (total("synth.search"), "s"),
        "synth.evaluations": (c.evaluations, "count"),
        "synth.restarts": (c.restarts, "count"),
        "synth.margin_objective.calls": (calls("synth.margin_objective"), "count"),
        "synth.margin_objective.s": (total("synth.margin_objective"), "s"),
        "synth.s_per_evaluation": (share(total("synth.search"), c.evaluations), "s"),
        "cases.load_case.s": (total("cases.load_case"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_written": (sum(r.bytes_written for r in traced) if "cli.main" in stats else 0, "B"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["bench.unattributed_s"] = (wall - sum(layer_self.values()), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    m["trace.overhead_share"] = (share(wall - untraced_wall, untraced_wall), "share")
    m["trace.spans"] = (tr.span_count, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
