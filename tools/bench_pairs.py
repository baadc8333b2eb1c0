"""Run the benchmark on two checkouts in alternating pairs.

    python3 tools/bench_pairs.py BASE HEAD --workload cli-session --pairs 10 \
        --seed 9001 --seconds 25 --out BENCH_6.json

BASE and HEAD are source checkouts (for example ``git clone`` copies of two
commits). Pair i runs ``perfbench/run.py --trace 0`` once in each, both on
seed ``--seed + i``, base first in even pairs and head first in odd ones,
so a drift of the machine weighs on both sides alike. The output records
the machine, both git SHAs (marked ``-dirty`` for a checkout with
uncommitted edits), each run's gated end-to-end metrics (the
``end_to_end`` names of HEAD's BENCHMARK.json) with its counts of
operations attempted and failed, its uncalibrated metrics and the median
of its calibration's speed factor, and per metric, calibrated and
uncalibrated, the median and quartiles of each side and the number of
pairs the head wins. A speed factor that differs between the sides moves
the calibrated metrics but not the uncalibrated ones. ``--out`` is written
after every pair, so a run cut short keeps the pairs it finished. After
the pairs of a workload, one ``--trace 1`` run per side on the first
pair's seed adds the per-layer metrics of its traced replay, with the
number of operations it traced. Every run's full result line also stays
in ``.perfbench_out/`` of its checkout. ``--workload`` may be given more
than once. The exit status is 1, after ``--out`` is written, when any run
reports ``correct: false`` or failed operations; those runs are named on
stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """The report and result lines of one benchmark run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    *_, report, result = done.stdout.strip().splitlines()
    return {"report": json.loads(report)["report"], "result": json.loads(result)}


def fault(label: str, result: dict) -> str | None:
    """A line naming the run when it was not correct or failed operations."""
    if result["correct"] and not result["failed"]:
        return None
    return f"{label}: correct {result['correct']}, {result['failed']} failed operations"


def git_sha(checkout: Path) -> str:
    """The checkout's commit SHA, with ``-dirty`` appended when its tracked
    files hold uncommitted edits."""
    done = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=40"],
        capture_output=True, text=True,
    )
    return done.stdout.strip() or "unknown"


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], gated: dict[str, str], suffix: str = "") -> dict:
    """Per gated metric, the comparison of the pairs' ``base<suffix>`` and
    ``head<suffix>`` values: "" for the calibrated metrics, "_raw" for the
    uncalibrated ones."""
    out = {}
    for name, better in gated.items():
        base = [p["base" + suffix][name] for p in pairs]
        head = [p["head" + suffix][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        b, h = spread(base), spread(head)
        out[name] = {
            "better": better,
            "base": b,
            "head": h,
            "head_wins": sum(sign * (y - x) > 0 for x, y in zip(base, head)),
            "pairs": len(pairs),
            # a gain counts when the medians differ, in the better direction,
            # by more than the base runs' own interquartile distance
            "median_gain": sign * (h["median"] - b["median"]),
            "base_iqr": b["q3"] - b["q1"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the reference commit")
    parser.add_argument("head", type=Path, help="checkout of the changed commit")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    bench = json.loads((args.head / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    doc = {
        "machine": None,
        "seconds": args.seconds,
        "sha": {side: git_sha(path) for side, path in sides.items()},
        "workloads": {},
    }
    faults = []
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                run = run_once(sides[side], workload, seed, args.seconds)
                faults.append(fault(f"{workload} seed {seed} {side}", run["result"]))
                doc["machine"] = doc["machine"] or run["report"]["machine"]
                metrics = run["result"]["metrics"]
                pair[side] = {name: metrics[name]["value"] for name in gated}
                pair[f"{side}_raw"] = {
                    name: m["value"] for name, m in run["report"]["raw_metrics"].items()
                }
                pair[f"{side}_speed_factor"] = run["report"]["speed_factor"]["median"]
                pair[f"{side}_correct"] = run["result"]["correct"]
                pair[f"{side}_ops"] = {k: run["result"][k] for k in ("attempted", "failed")}
            pairs.append(pair)
            print(json.dumps({"workload": workload, **pair}), flush=True)
            entry = doc["workloads"][workload] = {"pairs": pairs}
            if len(pairs) > 1:  # quartiles need two runs a side
                entry["summary"] = summarize(pairs, gated)
                entry["raw_summary"] = summarize(pairs, gated, "_raw")
                entry["speed_factor"] = {
                    side: spread([p[f"{side}_speed_factor"] for p in pairs])
                    for side in ("base", "head")
                }
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
        trace = {"seed": args.seed}
        for side in ("base", "head"):
            run = run_once(sides[side], workload, args.seed, args.seconds, trace=1)
            result = run["result"]
            faults.append(fault(f"{workload} seed {args.seed} {side} traced", result))
            trace[side] = {
                "correct": result["correct"],
                # a traced run replays every operation untraced, then traced
                "operations": result["attempted"] // 2,
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
        entry["trace"] = trace
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    faults = [line for line in faults if line]
    for line in faults:
        print(line, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
