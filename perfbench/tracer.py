"""Span recorder installed around the public functions of shscert's modules.

The wrappers live here, in the benchmark, so the package itself is not
edited. Installing replaces every binding of a wrapped function: the
defining module, each module that imported the name (``check_cbc`` is
bound in ``certify``, ``synth``, ``cli`` and the package namespace) and
each class attribute that aliases a method (``Polynomial.__rmul__`` is
``__mul__``). Spans are recorded only while an operation window is open,
so the benchmark's own correctness checks do not count against a layer.

A span's self time is its duration minus the durations of its direct
children; calls are nested in one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute) pairs; "Polynomial.substitute" names a method.
TRACED = {
    "poly": (
        "nonneg_on_box",
        "min_on_interval",
        "sturm_root_count",
        "Polynomial.__add__",
        "Polynomial.__mul__",
        "Polynomial.__pow__",
        "Polynomial.derivative",
        "Polynomial.substitute",
        "Polynomial.expect",
    ),
    "certify": ("generator", "jump_expectation", "check_cbc", "assemble_sos"),
    "augment": ("construct_acbc", "check_acbc_conditions"),
    "bound": ("compute_delta", "compute_delta_for"),
    "sim": (
        "flow_step",
        "jump_step",
        "simulate",
        "monte_carlo",
        "trajectory_csv",
        "clopper_pearson",
    ),
    "synth": ("search", "margin_objective"),
    "cases": ("load_case",),
    "cli": ("main",),
}

LAYERS = tuple(TRACED)

RAISED = object()  # result seen by an observer when the wrapped call raised


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Counters:
    """Work counts taken from the arguments and results of wrapped calls."""

    substeps: int = 0
    multivariate_s: float = 0.0
    conditions: int = 0
    decided: int = 0
    trajectories: int = 0
    exceeded: int = 0
    blowups: int = 0
    evaluations: int = 0
    restarts: int = 0
    distinct_trajectories: int = 0
    op_trajectory_keys: set = field(default_factory=set)


class Tracer:
    """In-memory span store with per-name aggregates.

    Aggregates cover every span; at most ``span_cap`` spans are kept for
    the JSONL file, so a long run cannot exhaust memory.
    """

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.active = False
        self.op = -1
        self.stats: dict[str, NameStats] = {}
        self.counters = Counters()
        self.spans: list[tuple] = []
        self.span_count = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def window(self, op: int):
        """Record spans of operation ``op`` for the duration of the block."""
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.active = False
            c = self.counters
            c.distinct_trajectories += len(c.op_trajectory_keys)
            c.op_trajectory_keys = set()

    def _finish(self, frame: list, end: float) -> float:
        span_id, name, start, child_s = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = NameStats()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.span_count += 1
        if len(self.spans) < self.span_cap:
            self.spans.append(
                (span_id, parent[0] if parent is not None else None, self.op, name, start, end)
            )
        return dur

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [tracer._next_id, name, time.perf_counter(), 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            result = RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = tracer._finish(frame, end)
                if observe is not None:
                    observe(tracer.counters, args, kwargs, result, dur)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the TRACED names in loaded shscert modules."""
        pkg_modules = [
            m for k, m in list(sys.modules.items()) if k == "shscert" or k.startswith("shscert.")
        ]
        for layer, attrs in TRACED.items():
            mod = sys.modules[f"shscert.{layer}"]
            for attr in attrs:
                owner_name, _, meth = attr.rpartition(".")
                if owner_name:
                    cls = getattr(mod, owner_name)
                    owners = [cls]
                    original = cls.__dict__[meth]
                else:
                    owners = pkg_modules
                    original = getattr(mod, attr)
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, original, OBSERVERS.get(name))
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._installed.append((owner, key, original))
                            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
            fh.write(
                json.dumps({"spans_recorded": self.span_count, "spans_written": len(self.spans)})
                + "\n"
            )


# -- observers: counts read from a wrapped call's arguments and result -------


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _nonneg(c: Counters, args, kwargs, result, dur: float) -> None:
    if result is RAISED:
        return
    c.conditions += 1
    if result.status != "inconclusive":
        c.decided += 1
    if len(args[0].effective_vars()) > 1:
        c.multivariate_s += dur


def _flow_step(c: Counters, args, kwargs, result, dur: float) -> None:
    c.substeps += _arg(args, kwargs, 4, "substeps")


def _simulate(c: Counters, args, kwargs, result, dur: float) -> None:
    config = _arg(args, kwargs, 2, "config")
    c.op_trajectory_keys.add(
        (id(args[0]), config.master_seed, _arg(args, kwargs, 4, "traj_index", 0))
    )


def _monte_carlo(c: Counters, args, kwargs, result, dur: float) -> None:
    if result is RAISED:
        return
    c.trajectories += result.n_trajectories
    c.exceeded += result.exceed_count
    c.blowups += result.blowup_count


def _search(c: Counters, args, kwargs, result, dur: float) -> None:
    if result is RAISED:
        return
    c.evaluations += result.evaluations
    c.restarts += result.restarts


OBSERVERS = {
    "poly.nonneg_on_box": _nonneg,
    "sim.flow_step": _flow_step,
    "sim.simulate": _simulate,
    "sim.monte_carlo": _monte_carlo,
    "synth.search": _search,
}
