"""Command-line front end for the certification pipeline.

Subcommands: verify, augment, bound, simulate, synthesize, repro. Every
run that returns writes a manifest (<command>_manifest.json) recording
the command, the sha256 of each input as read, seed, version, and
wall-clock next to its outputs; malformed input writes none. All data
outputs are byte-deterministic for fixed inputs and seed; the manifest's
wall-clock field is the one exception.

Exit codes: 0 success (for verify and augment --check: all conditions
hold), 1 a condition or a pipeline stage fails, 2 a check was inconclusive
(a margin it cannot decide, NaN included), 3 malformed input (a usage
error, bad JSON, a value of the wrong type, a violated data invariant or
a non-finite number).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .augment import Acbc, check_acbc_conditions, construct_acbc
from .bound import compute_delta, compute_delta_for
from .cases import load_case
from .certify import CbcCandidate, check_cbc
from .model import JumpSchedule, SHSModel
from .poly import IntervalBox
from .sim import (
    BlowUpError,
    SimConfig,
    check_config,
    monte_carlo,
    trajectories,
    trajectory_csv,
)
from .synth import SynthTemplate, search

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_BAD_INPUT = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_BAD_INPUT, not
    argparse's 2, which here means "verify was inconclusive"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _parse_domain(text: str, state_vars) -> IntervalBox:
    intervals = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            var, _, rng = piece.partition("=")
            lo, _, hi = rng.partition(":")
            intervals[var.strip()] = (float(lo), float(hi))
        except ValueError:
            raise CliError(
                EXIT_BAD_INPUT,
                f"cannot parse domain piece {piece!r}; expected var=lo:hi",
            ) from None
    missing = [v for v in state_vars if v not in intervals]
    if missing:
        raise CliError(EXIT_BAD_INPUT, f"domain {text!r} misses state variable(s) {missing}")
    if extra := [v for v in intervals if v not in state_vars]:
        raise CliError(EXIT_BAD_INPUT, f"domain {text!r} names non-state variable(s) {extra}")
    try:
        return IntervalBox(intervals)
    except ValueError as e:
        raise CliError(EXIT_BAD_INPUT, f"invalid domain {text!r}: {e}") from None


class _Run:
    """Output directory, inputs and manifest of one command."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.outdir = Path(args.out)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.seed = args.seed
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.started = time.monotonic()

    def load(self, path: str, cls, label: str):
        """Read a JSON file once as cls and record the sha256 of its bytes;
        malformed input exits with EXIT_BAD_INPUT."""
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            raise CliError(EXIT_BAD_INPUT, f"cannot read {path}: {e}") from None
        try:
            obj = cls.from_dict(json.loads(data))
        except json.JSONDecodeError as e:
            raise CliError(
                EXIT_BAD_INPUT,
                f"malformed JSON in {path} at line {e.lineno}, column {e.colno}: {e.msg}",
            ) from None
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise CliError(EXIT_BAD_INPUT, f"invalid {label} {path}: {e}") from None
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        return obj

    def write(self, name: str, text: str) -> Path:
        path = self.outdir / name
        path.write_text(text)
        self.outputs.append(str(path))
        return path

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "tool_version": __version__,
            "wall_clock_s": round(time.monotonic() - self.started, 6),
            "outputs": sorted(self.outputs),
        }
        (self.outdir / f"{self.command}_manifest.json").write_text(_dump(manifest))


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_verify(args: argparse.Namespace, run: _Run) -> int:
    model = run.load(args.model, SHSModel, "model")
    cand = run.load(args.candidate, CbcCandidate, "candidate")
    domain = _parse_domain(args.domain, model.state_vars) if args.domain else None
    report = check_cbc(model, cand, domain)
    run.write("verify_report.json", _dump(report.to_dict()))
    for c in report.conditions:
        witness = "" if c.witness is None else f" witness={c.witness}"
        print(f"{c.condition:8s} {c.status:12s} margin={c.margin:.6g}{witness}")
    return _exit_code(report)


def _exit_code(report) -> int:
    """The exit code of a check's report: fail, else inconclusive, else ok."""
    return EXIT_FAIL if report.any_fail else EXIT_OK if report.all_hold else EXIT_INCONCLUSIVE


def cmd_augment(args: argparse.Namespace, run: _Run) -> int:
    model = run.load(args.model, SHSModel, "model")
    cand = run.load(args.candidate, CbcCandidate, "candidate")
    try:
        acbc = construct_acbc(cand, model.jump, args.eps1, args.eps2)
    except ValueError as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    run.write("acbc.json", _dump(acbc.to_dict()))
    print(
        f"regime={acbc.regime} alpha={acbc.alpha:.6g} eta={acbc.eta:.6g} "
        f"kappa={acbc.kappa:.6g} gamma={acbc.gamma:.6g}"
    )
    if not args.check:
        return EXIT_OK
    report = check_acbc_conditions(model, acbc)
    run.write("acbc_report.json", _dump(report.to_dict()))
    return _exit_code(report)


def cmd_bound(args: argparse.Namespace, run: _Run) -> int:
    acbc = run.load(args.acbc, Acbc, "lifted certificate")
    try:
        sb = compute_delta_for(acbc, args.horizon)
    except ValueError as e:
        print(f"bound computation failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    run.write("bound.json", _dump(sb.to_dict()))
    print(
        f"delta={sb.delta:.6g} (raw {sb.delta_raw:.6g}, {sb.case} branch) "
        f"safety>={sb.safety_probability:.6g} over T={sb.horizon_T}"
    )
    return EXIT_OK


def _sim_config(
    args: argparse.Namespace,
    model: SHSModel,
    horizon: int,
    schedule: JumpSchedule | None = None,
    x0: str | None = None,
    acbc: Acbc | None = None,
) -> SimConfig:
    """The run's SimConfig, checked against model together with acbc:
    --schedule, when given, overrides ``schedule``, and ``x0`` is the text
    of --x0. A value that does not fit is malformed input."""
    try:
        config = SimConfig(
            horizon_T=horizon,
            n_trajectories=args.runs,
            substeps_per_tau=args.substeps,
            master_seed=args.seed,
            schedule=schedule if args.schedule is None else JumpSchedule.parse(args.schedule),
            x0=tuple(float(v) for v in x0.split(",")) if x0 else None,
        )
        check_config(model, config, acbc, x0_name="--x0")
    except ValueError as e:
        raise CliError(EXIT_BAD_INPUT, str(e)) from None
    return config


def cmd_simulate(args: argparse.Namespace, run: _Run) -> int:
    model = run.load(args.model, SHSModel, "model")
    cand = run.load(args.candidate, CbcCandidate, "candidate")
    acbc = run.load(args.acbc, Acbc, "lifted certificate") if args.acbc else None
    config = _sim_config(args, model, args.horizon, x0=args.x0, acbc=acbc)

    keep = max(0, min(args.runs, args.keep_trajectories))
    report = None
    if acbc is not None and args.runs > 1:
        report = monte_carlo(model, cand, acbc, config, keep=keep)
        kept = report.kept
    elif keep:
        kept = tuple(trajectories(model, cand, replace(config, n_trajectories=keep), acbc, keep))
    else:
        kept = ()
    for idx, traj in enumerate(kept):
        if isinstance(traj, BlowUpError):
            print(f"simulate failed: {traj}", file=sys.stderr)
            return EXIT_FAIL
        if args.format == "json":
            doc = [r.to_dict() for r in traj.records]
            run.write(f"trajectory_{idx:04d}.json", _dump(doc))
        else:
            run.write(f"trajectory_{idx:04d}.csv", trajectory_csv(model, traj))
    if report is not None:
        run.write("mc_report.json", _dump(report.to_dict()))
        print(
            f"n={report.n_trajectories} p_exceed={report.p_exceed_hat:.4g} "
            f"ci99=[{report.ci99_exceed[0]:.4g}, {report.ci99_exceed[1]:.4g}] "
            f"p_unsafe={report.p_unsafe_hat:.4g} delta={report.delta:.4g} "
            f"violated={report.bound_violated}"
        )
    else:
        print(f"wrote {keep} trajectory file(s) to {run.outdir}")
    return EXIT_OK


def cmd_synthesize(args: argparse.Namespace, run: _Run) -> int:
    model = run.load(args.model, SHSModel, "model")
    if args.template:
        template = run.load(args.template, SynthTemplate, "template")
    else:
        try:
            template = SynthTemplate(seed=args.seed)
        except ValueError as e:
            raise CliError(EXIT_BAD_INPUT, f"invalid --seed {args.seed}: {e}") from None
    warm = run.load(args.warm_start, CbcCandidate, "candidate") if args.warm_start else None
    try:
        result = search(model, template, warm_start=warm)
    except ValueError as e:  # search raises it only for a warm start that does not fit
        raise CliError(EXIT_BAD_INPUT, f"invalid warm start {args.warm_start}: {e}") from None
    run.write("synth_report.json", _dump(result.to_dict()))
    if result.candidate is not None:
        run.write("synthesized_candidate.json", _dump(result.candidate.to_dict()))
    print(
        f"status={result.status} margin={result.margin:.6g} "
        f"evaluations={result.evaluations} restarts={result.restarts}"
    )
    return EXIT_OK if result.feasible else EXIT_FAIL


def cmd_repro(args: argparse.Namespace, run: _Run) -> int:
    case = load_case(args.case)
    config = _sim_config(args, case.model, case.horizon, case.schedule)
    summary: dict = {"case": case.case_id, "seed": args.seed}
    stage = "verify"
    try:
        report = check_cbc(case.model, case.candidate)
        summary["verify"] = report.to_dict()
        print(f"[verify] margins: " + ", ".join(
            f"{c.condition}={c.margin:.4g}({c.status})" for c in report.conditions
        ))

        stage = "augment"
        acbc = construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
        summary["acbc"] = acbc.to_dict()
        print(
            f"[augment] regime={acbc.regime} beta_alpha={acbc.beta_alpha:.6g} "
            f"beta_eta={acbc.beta_eta:.6g} kappa={acbc.kappa:.6g} gamma={acbc.gamma:.6g}"
        )

        stage = "bound"
        rep = case.reported
        rounded = compute_delta(
            case.reported_alpha,
            case.reported_eta,
            rep["kappa"],
            rep["gamma"],
            case.horizon,
        )
        full = compute_delta_for(acbc, case.horizon)
        summary["bound_rounded"] = rounded.to_dict()
        summary["bound_full_precision"] = full.to_dict()
        target = rep["safety_probability"]
        got = rounded.safety_probability
        print(
            f"[bound] safety >= {got:.6f} from rounded constants "
            f"(target {target}), {full.safety_probability:.6f} full precision"
        )
        if abs(got - target) > 1e-4:
            print(
                f"repro failed at stage bound: safety {got:.6f} does not match "
                f"reported {target} within 1e-4",
                file=sys.stderr,
            )
            return EXIT_FAIL

        stage = "simulate"
        keep = min(args.keep_trajectories, args.runs)
        mc = monte_carlo(case.model, case.candidate, acbc, config, keep=keep)
        summary["monte_carlo"] = mc.to_dict()
        print(
            f"[simulate] schedule={config.schedule.describe()} n={mc.n_trajectories} "
            f"p_exceed={mc.p_exceed_hat:.4g} ci99_low={mc.ci99_exceed[0]:.4g} "
            f"p_unsafe={mc.p_unsafe_hat:.4g} delta={mc.delta:.4g} "
            f"violated={mc.bound_violated}"
        )
        for idx, traj in enumerate(mc.kept):
            if isinstance(traj, BlowUpError):
                raise traj
            run.write(f"case{case.case_id}_traj_{idx:02d}.csv", trajectory_csv(case.model, traj))
    except (ValueError, RuntimeError) as e:
        print(f"repro failed at stage {stage}: {e}", file=sys.stderr)
        return EXIT_FAIL

    run.write(f"case{case.case_id}_summary.json", _dump(summary))
    return EXIT_OK


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shscert",
        description="certificate checking, lifting, bounds, and simulation "
        "for jump-diffusion systems with scheduled stochastic jumps",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")

    p = sub.add_parser("verify", help="check the five certificate conditions")
    p.add_argument("model", help="model JSON file")
    p.add_argument("candidate", help="certificate candidate JSON file")
    p.add_argument("--domain", help="override verification box, e.g. x=0:8")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("augment", help="lift a certificate to the augmented system")
    p.add_argument("model", help="model JSON file")
    p.add_argument("candidate", help="certificate candidate JSON file")
    p.add_argument("--eps1", type=float, default=0.1)
    p.add_argument("--eps2", type=float, default=None, help="default: q2 + 1")
    p.add_argument("--check", action="store_true", help="also check lifted conditions")
    common(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("bound", help="finite-horizon exceedance bound from a lifted certificate")
    p.add_argument("acbc", help="lifted certificate JSON file")
    p.add_argument("--horizon", type=int, required=True, help="number of transitions")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="seeded trajectories and Monte Carlo estimates")
    p.add_argument("model", help="model JSON file")
    p.add_argument("candidate", help="certificate candidate JSON file (controllers)")
    p.add_argument("--acbc", help="lifted certificate JSON (enables exceedance tracking)")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--substeps", type=int, default=20)
    p.add_argument("--schedule", default="uniform", help="fixed:d | cyclic:d1,d2,... | uniform")
    p.add_argument("--x0", help="fix the start state, e.g. 1.0 (default: uniform on X0)")
    p.add_argument("--keep-trajectories", type=int, default=10, help="trajectory files to write")
    p.add_argument(
        "--format", choices=("json", "csv"), default="csv",
        help="trajectory output format (default: csv)",
    )
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synthesize", help="search for a feasible certificate")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--template", help="search template JSON file")
    p.add_argument("--warm-start", help="candidate JSON to start from")
    common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("repro", help="end-to-end reproduction of a bundled case")
    p.add_argument("case", choices=("1", "2", "3"), help="bundled case id")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--substeps", type=int, default=20)
    p.add_argument("--schedule", default=None, help="override the case's bundled schedule")
    p.add_argument("--keep-trajectories", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        code = args.func(args, run)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    run.finish()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
