"""The three benchmark workloads and their correctness checks.

Every workload is a closed loop with one caller: it issues an operation,
waits for it, checks its outputs, then issues the next. ``ops()`` yields
the same operations in the same order for the same seed, so a traced
pass can replay exactly what an untraced pass ran.

Program calls go through module attributes (``synth.search``, not a
name imported here) so the tracer's wrappers see them. Only the program
calls are timed; writing inputs and checking outputs are not.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from shscert import augment, cases, certify, cli, sim, synth
from shscert.model import SHSModel
from shscert.poly import IntervalBox, Polynomial

MC_RUNS = 60  # trajectories per `repro` call
REPAIR_BUDGET = 100_000  # generous: the case-1 repair stops once feasible
SEARCH_BUDGET = 100  # case-2 search runs to exactly this many evaluations
CERTIFY_EVERY = 6  # one certify request per five simulate requests
TWO_STATE_EVERY = 10  # one certify request in ten uses the two-state model
CERTIFY_POOL = 40
OK_EXITS = (0, 1, 2)
# A trajectory that blows up escapes `simulate` and stops `repro` (a known
# defect). Like case 2's bound violation it is an outcome count, never a
# failure: failing it would leave only seeds or cases that hide it.
BLOWUP = "blowup"
BLOWUP_MESSAGES = ("non-finite", "overflowed")  # what sim.BlowUpError says


@dataclass
class OpResult:
    kind: str
    wall_s: float = 0.0
    work: int = 0
    digest: str = ""
    outcome: str = ""
    errors: list[str] = field(default_factory=list)
    bytes_written: int = 0
    start: float = 0.0  # perf_counter() when the operation was issued
    end: float = 0.0  # perf_counter() when the operation returned
    scale: float = 1.0  # speed factor from calibrate.py


class Clock:
    """Times program calls of one operation and opens its trace window."""

    def __init__(self, tracer, op: int):
        self.tracer = tracer
        self.op = op
        self.wall_s = 0.0

    def __call__(self, fn, *args, **kwargs):
        window = self.tracer.window(self.op) if self.tracer else contextlib.nullcontext()
        with window:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall_s += time.perf_counter() - t0


def run_cli(clock: Clock, argv: list[str]) -> tuple[int | str, str]:
    """Run one CLI command in-process and return its exit code and output.

    ``SystemExit`` gives its code, as the command line would. Any other
    exception escaping ``main`` takes the place of the code: BLOWUP for
    ``sim.BlowUpError`` (a known defect of ``simulate``), "raised:<type>"
    for anything else, so a new crash does not hide among the blow-ups."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = clock(cli.main, argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else int(e.code is not None)
        except sim.BlowUpError as e:
            return BLOWUP, f"BlowUpError: {e}"
        except Exception as e:  # noqa: BLE001 - any escape is a failed request
            return f"raised:{type(e).__name__}", f"{type(e).__name__}: {e}"
    return code, buf.getvalue()


def repro_blew_up(text: str) -> bool:
    """Whether ``repro`` stopped on a ``sim.BlowUpError``, which it reports
    as a stage failure with the error's message."""
    return "repro failed at stage" in text and any(m in text for m in BLOWUP_MESSAGES)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_outputs(path: Path) -> tuple[str, int]:
    """Digest of the data files in ``path`` (manifests excluded: they hold
    wall-clock time) and the bytes of every file written there."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(path.rglob("*")):
        if not f.is_file():
            continue
        data = f.read_bytes()
        size += len(data)
        if not f.name.endswith("_manifest.json"):
            h.update(str(f.relative_to(path)).encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


def load_json(path: Path, errors: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        errors.append(f"{path.name}: {e}")
        return None


def check_trajectory_csv(path: Path, n_states: int, rows: int, errors: list[str]) -> None:
    try:
        table = list(csv.reader(io.StringIO(path.read_text())))
    except OSError as e:
        errors.append(f"{path.name}: {e}")
        return
    header = ["k", "time", "z", "scenario"] + [f"x_{i + 1}" for i in range(n_states)] + ["B_value"]
    if not table or table[0] != header:
        errors.append(f"{path.name}: bad header")
    elif len(table) - 1 != rows:
        errors.append(f"{path.name}: {len(table) - 1} rows, expected {rows}")
    else:
        try:
            for row in table[1:]:
                for v in row[4:]:
                    float(v)
        except ValueError:
            errors.append(f"{path.name}: non-numeric state or certificate value")


def check_mc_report(mc: dict, runs: int, errors: list[str]) -> None:
    """McReport invariants: counts in [0, n], blow-ups counted as both
    exceeding and unsafe, each CI brackets its estimate, and the violation
    flag is exactly the CI-versus-delta comparison."""
    n = mc["n_trajectories"]
    if n != runs:
        errors.append(f"n_trajectories {n} != requested {runs}")
    for key in ("exceed_count", "unsafe_count", "blowup_count"):
        if not 0 <= mc[key] <= n:
            errors.append(f"{key}={mc[key]} outside [0, {n}]")
    if mc["blowup_count"] > min(mc["exceed_count"], mc["unsafe_count"]):
        errors.append("blow-ups not counted as exceeding and unsafe")
    for est, ci in (("p_exceed_hat", "ci99_exceed"), ("p_unsafe_hat", "ci99_unsafe")):
        lo, hi = mc[ci]
        if not lo <= mc[est] <= hi:
            errors.append(f"{ci}=[{lo}, {hi}] does not bracket {est}={mc[est]}")
    if mc["bound_violated"] != (mc["ci99_exceed"][0] > mc["delta"]):
        errors.append("bound_violated disagrees with ci99_exceed[0] > delta")


class McRepro:
    """`repro c --runs N` for bundled cases 1, 2 and 3 in turn, each under
    its bundled schedule, every pass with the run's seed."""

    name = "mc-repro"
    unit = 3  # stop only after a whole pass over the three cases
    min_ops = 6  # two passes, so every case is checked for determinism

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.runs = MC_RUNS
        self.out = workdir / "out"

    def ops(self):
        first_digest: dict[str, str] = {}
        while True:
            for case in ("1", "2", "3"):
                yield lambda clock, case=case: self._repro(clock, case, first_digest)

    def _repro(self, clock: Clock, case: str, first_digest: dict[str, str]) -> OpResult:
        out = fresh_dir(self.out)
        argv = ["repro", case, "--runs", str(self.runs), "--seed", str(self.seed), "--out", str(out)]
        code, text = run_cli(clock, argv)
        r = OpResult("repro", clock.wall_s, work=self.runs, outcome=f"case{case}:exit{code}")
        if code == 1 and repro_blew_up(text):
            # the error names the substep, so it must repeat exactly too
            r.outcome = f"case{case}:{BLOWUP}"
            r.digest = hashlib.sha256(text.encode()).hexdigest()
        elif code != 0:
            r.errors.append(f"repro {case} exited {code}: {text.strip()[-300:]}")
            return r
        else:
            self._check(out, case, r)
        if first_digest.setdefault(case, r.digest) != r.digest:
            r.errors.append(f"case {case}: outputs differ from the first repetition at the same seed")
        return r

    def _check(self, out: Path, case: str, r: OpResult) -> None:
        summary = load_json(out / f"case{case}_summary.json", r.errors)
        load_json(out / "repro_manifest.json", r.errors)
        if summary is None:
            return
        mc = summary["monte_carlo"]
        check_mc_report(mc, self.runs, r.errors)
        kept = sorted(out.glob(f"case{case}_traj_*.csv"))
        if len(kept) != min(10, self.runs):
            r.errors.append(f"{len(kept)} kept trajectories, expected {min(10, self.runs)}")
        for path in kept:
            check_trajectory_csv(path, 1, mc["horizon_T"] + 1, r.errors)
        r.digest, r.bytes_written = dir_outputs(out)
        r.outcome = f"case{case}:" + ("bound_violated" if mc["bound_violated"] else "within_bound")


class SearchRepair:
    """Warm-started repair of case 1 to feasibility, then a warm-started
    case-2 search that runs out its fixed budget. One search per repair
    keeps the repairs, each timed alone, as many per run as can be."""

    name = "search-repair"
    unit = 2
    min_ops = unit

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def ops(self):
        while True:
            yield lambda clock: self._search(clock, "1", REPAIR_BUDGET, "repair")
            yield lambda clock: self._search(clock, "2", SEARCH_BUDGET, "budget-search")

    def _search(self, clock: Clock, case_id: str, budget: int, kind: str) -> OpResult:
        case = clock(cases.load_case, case_id)
        template = synth.SynthTemplate(budget=budget, seed=self.seed)
        result = clock(synth.search, case.model, template, warm_start=case.candidate)
        r = OpResult(kind, clock.wall_s, work=result.evaluations, outcome=f"{kind}:{result.status}")
        doc = result.to_dict()
        r.digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        if kind == "repair" and not result.feasible:
            r.errors.append(f"case-1 repair ended {result.status} after {result.evaluations} evaluations")
        if result.feasible != (result.status == "feasible"):
            r.errors.append(f"status {result.status} disagrees with feasible={result.feasible}")
        if result.candidate is not None:
            # independent re-verification on freshly parsed inputs
            model = cases.load_case(case_id).model
            cand = certify.CbcCandidate.from_dict(json.loads(json.dumps(doc["candidate"])))
            margin = certify.check_cbc(model, cand).min_margin
            if result.feasible and not margin > 0:
                r.errors.append(f"reported feasible but re-verified margin is {margin}")
            if not result.feasible and margin > 0:
                r.errors.append(f"reported {result.status} but re-verified margin is {margin}")
        elif result.feasible:
            r.errors.append("feasible result without a candidate")
        return r


def perturbed(c: certify.CbcCandidate, rng: np.random.Generator) -> certify.CbcCandidate:
    """The candidate with each certificate coefficient moved by about 1% and
    gamma1, gamma2 by about 5%; the decay and level constants are kept, so
    the lift still constructs."""
    B = Polynomial(
        c.Bbar.vars,
        {e: v * float(1 + 0.01 * rng.standard_normal()) for e, v in sorted(c.Bbar.terms.items())},
    )
    return replace(
        c,
        Bbar=B,
        gamma1=c.gamma1 * float(1 + 0.05 * rng.standard_normal()),
        gamma2=c.gamma2 * float(1 + 0.05 * rng.standard_normal()),
    )


def two_state_inputs(rng: np.random.Generator):
    """A weakly coupled two-state copy of case 1 with the sum certificate
    B(x) + B(y): the verifier takes the multivariate grid path on it."""
    base = cases.load_case("1")
    m = base.model
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    eps = float(rng.uniform(0.005, 0.02))
    model = SHSModel(
        state_vars=("x", "y"),
        input_vars=m.input_vars,
        noise_vars=m.noise_vars,
        f1=(m.f1[0] + eps * (y - x), m.f1[0].substitute({"x": y}) + eps * (x - y)),
        sigma=(m.sigma[0], m.sigma[0]),
        rho=(m.rho[0], m.rho[0]),
        rates=m.rates,
        f2=(m.f2[0], m.f2[0].substitute({"x": y})),
        noise=m.noise,
        jump=m.jump,
        X=IntervalBox({"x": m.X["x"], "y": m.X["x"]}),
        X0=IntervalBox({"x": m.X0["x"], "y": m.X0["x"]}),
        Xu=IntervalBox({"x": m.Xu["x"], "y": m.X["x"]}),
    )
    c = perturbed(base.candidate, rng)
    cand = replace(
        c,
        Bbar=c.Bbar + c.Bbar.substitute({"x": y}),
        gamma1=2 * c.gamma1,
        gamma2=2 * c.gamma2,
        alphabar=2 * c.alphabar,
    )
    return model, cand, base.horizon


class CliSession:
    """Single CLI requests on seeded input files: one certify request
    (verify, augment --check, bound) per five simulate requests."""

    name = "cli-session"
    unit = 1
    min_ops = CERTIFY_EVERY * TWO_STATE_EVERY  # reaches one two-state request

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "out"
        inputs = fresh_dir(workdir / "inputs")
        rng = np.random.default_rng([seed, 1])
        self.bundled = {}
        for cid in ("1", "2", "3"):
            case = cases.load_case(cid)
            acbc = augment.construct_acbc(case.candidate, case.model.jump, case.eps1, case.eps2)
            files = {}
            for key, obj in (("model", case.model), ("cand", case.candidate), ("acbc", acbc)):
                files[key] = inputs / f"case{cid}_{key}.json"
                files[key].write_text(obj.to_json())
            self.bundled[cid] = (files, case.schedule.describe(), case.horizon)
        self.certify_pool = []
        for i in range(CERTIFY_POOL):
            pos = i % TWO_STATE_EVERY
            if pos == 0:
                two_state_at = int(rng.integers(TWO_STATE_EVERY))
            if pos == two_state_at:
                model, cand, horizon = two_state_inputs(rng)
                model_file = inputs / f"certify{i:03d}_model.json"
                model_file.write_text(model.to_json())
            else:
                cid = str(1 + i % 3)
                case = cases.load_case(cid)
                cand = perturbed(case.candidate, rng)
                model_file, horizon = self.bundled[cid][0]["model"], case.horizon
            cand_file = inputs / f"certify{i:03d}_cand.json"
            cand_file.write_text(cand.to_json())
            self.certify_pool.append((model_file, cand_file, horizon))

    def ops(self):
        rng = np.random.default_rng([self.seed, 2])
        i = 0
        while True:
            if i % CERTIFY_EVERY == 0:
                entry = self.certify_pool[(i // CERTIFY_EVERY) % len(self.certify_pool)]
                yield lambda clock, entry=entry: self._certify(clock, *entry)
            else:
                cid = str(rng.integers(1, 4))
                sim_seed = int(rng.integers(2**31))
                yield lambda clock, cid=cid, s=sim_seed: self._simulate(clock, cid, s)
            i += 1

    def _step(self, clock: Clock, r: OpResult, argv: list[str], out: Path, expect: list[str]):
        code, text = run_cli(clock, argv + ["--out", str(out)])
        if code == BLOWUP and argv[0] == "simulate":
            return code
        if code not in OK_EXITS:
            r.errors.append(f"{argv[0]} exited {code}: {text.strip()[-300:]}")
            return code
        load_json(out / f"{argv[0]}_manifest.json", r.errors)
        if code == 0:
            for name in expect:
                load_json(out / name, r.errors)
        return code

    def _certify(self, clock: Clock, model: Path, cand: Path, horizon: int) -> OpResult:
        out = fresh_dir(self.out)
        r = OpResult("certify")
        codes = [self._step(clock, r, ["verify", str(model), str(cand)], out / "verify", [])]
        if codes[0] in OK_EXITS:
            load_json(out / "verify" / "verify_report.json", r.errors)
        codes.append(
            self._step(
                clock, r, ["augment", str(model), str(cand), "--check"], out / "augment",
                ["acbc.json", "acbc_report.json"],
            )
        )
        if codes[1] == 0:
            codes.append(
                self._step(
                    clock, r, ["bound", str(out / "augment" / "acbc.json"), "--horizon", str(horizon)],
                    out / "bound", ["bound.json"],
                )
            )
        r.wall_s, r.work = clock.wall_s, 1
        r.outcome = "certify:" + "".join(str(c) for c in codes)
        r.digest, r.bytes_written = dir_outputs(out)
        return r

    def _simulate(self, clock: Clock, cid: str, seed: int) -> OpResult:
        files, schedule, horizon = self.bundled[cid]
        out = fresh_dir(self.out)
        r = OpResult("simulate")
        argv = [
            "simulate", str(files["model"]), str(files["cand"]), "--acbc", str(files["acbc"]),
            "--schedule", schedule, "--seed", str(seed),
        ]
        code = self._step(clock, r, argv, out, [])
        if code == 0:
            check_trajectory_csv(out / "trajectory_0000.csv", 1, horizon + 1, r.errors)
        r.wall_s, r.work = clock.wall_s, 1
        r.outcome = f"simulate:{code}"
        r.digest, r.bytes_written = dir_outputs(out)
        return r


WORKLOADS = {w.name: w for w in (McRepro, SearchRepair, CliSession)}


def run_loop(workload, seconds: float, cal) -> list[OpResult]:
    """Issue operations until ``seconds`` have passed, at a whole unit and
    not before ``min_ops``, with reference operations in between (see
    calibrate.py)."""
    results: list[OpResult] = []
    cal.sample()
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(workload.ops()):
        if i >= workload.min_ops and i % workload.unit == 0 and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        r = op(Clock(None, i))
        r.start, r.end = start, time.perf_counter()
        results.append(r)
        cal.maybe_sample()
    cal.sample()
    return results


def run_paired(workload, seconds: float, tracer) -> tuple[list[OpResult], list[OpResult]]:
    """Like run_loop, but issue each operation twice: untraced, then traced.
    Pairs run back to back, so drift in machine speed cancels in the
    overhead; the wrappers are installed only for the traced one."""
    plain: list[OpResult] = []
    traced: list[OpResult] = []
    deadline = time.perf_counter() + seconds
    for i, (op, again) in enumerate(zip(workload.ops(), workload.ops())):
        if i >= workload.min_ops and i % workload.unit == 0 and time.perf_counter() >= deadline:
            break
        plain.append(op(Clock(None, i)))
        tracer.install()
        try:
            traced.append(again(Clock(tracer, i)))
        finally:
            tracer.uninstall()
    return plain, traced
