"""Randomized search for certificate candidates.

The search scores a candidate by the least of its five condition
margins, which ``certify.CbcChecker`` computes without deciding a status;
a parameter vector that encodes no candidate scores -inf. It runs
multi-start random initialization followed by per-coordinate
golden-section refinement, optionally warm-started from a user-supplied
candidate. Each positive score is checked by ``check_cbc``, and the
search stops at the first candidate that check proves: every condition
"holds" with a positive least margin. Only such a candidate is reported
feasible; otherwise the best score is the reported margin. Everything is
driven by one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certify import CbcCandidate, CbcChecker, CbcReport, check_cbc
from .codec import Codec
from .model import SHSModel
from .poly import Polynomial, min_on_interval

# The search never simulates. sim is imported so that `import shscert.synth`
# loads every module perfbench/tracer.py wraps: Tracer.install looks each
# one up in sys.modules. Drop it once the tracer imports what it wraps
# (ROADMAP.md, item 9).
from . import sim  # noqa: F401

DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "kappa1": (-1.0, 1.0),
    "kappa2": (1e-3, 2.0),
    "gamma1": (0.0, 1.0),
    "gamma2": (0.0, 1.0),
    "alphabar": (0.0, 10.0),
    "etabar": (0.0, 100.0),
}

_CONSTANTS = ("kappa1", "kappa2", "gamma1", "gamma2", "alphabar", "etabar")


@dataclass(frozen=True)
class SynthTemplate(Codec):
    """Shape and budget of a certificate search."""

    cert_degree: int = 4
    controller_degree: int = 1
    ranges: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_RANGES)
    )
    budget: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.cert_degree < 2 or self.cert_degree % 2:
            raise ValueError("cert_degree must be an even integer >= 2")
        if self.controller_degree < 0:
            raise ValueError("controller_degree must be >= 0")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if unknown := sorted(set(self.ranges) - set(_CONSTANTS)):
            raise ValueError(f"ranges name unknown constant(s) {unknown}; expected {_CONSTANTS}")
        merged = dict(DEFAULT_RANGES)
        merged.update(self.ranges)
        object.__setattr__(self, "ranges", merged)
        for name in _CONSTANTS:
            lo, hi = merged[name]
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"range for {name} must be finite: [{lo}, {hi}]")
            if lo > hi:
                raise ValueError(f"range for {name} is empty: [{lo}, {hi}]")
        if merged["kappa2"][1] <= 0:
            raise ValueError("kappa2 range must allow positive values")
        if merged["etabar"][1] <= merged["alphabar"][0]:
            raise ValueError(
                "etabar range lies below alphabar range; separation "
                "etabar > alphabar is unreachable"
            )


def margin_objective(model: SHSModel, cand: CbcCandidate) -> float:
    """Least condition margin of a fresh check_cbc, NaN when any is NaN. A
    positive value proves nothing when a condition is inconclusive."""
    return check_cbc(model, cand).min_margin


@dataclass(frozen=True)
class SynthResult(Codec):
    candidate: CbcCandidate | None
    feasible: bool
    margin: float
    evaluations: int
    restarts: int
    status: str


class _Search:
    """State of one search over a parameter vector theta laid out as the
    nb coefficients of Bbar | m flow controller rows | m jump controller
    rows (nc coefficients each) | the six constants in ``_CONSTANTS``
    order."""

    def __init__(self, model: SHSModel, template: SynthTemplate):
        self.model = model
        self.t = template
        self.rng = np.random.default_rng(template.seed)
        self.evals = 0
        # the first candidate check_cbc proves, with its report
        self.proof: tuple[CbcCandidate, CbcReport] | None = None
        # one checker per search: each evaluation reuses the previous one's work
        self.checker = CbcChecker(model)
        self.nb = template.cert_degree + 1
        self.nc = template.controller_degree + 1
        self.m = model.m
        self.ncoef = self.nb + 2 * self.m * self.nc
        self.size = self.ncoef + len(_CONSTANTS)
        sv = model.state_vars
        self.var = sv[0] if model.n == 1 else None
        if self.var is None:
            # coefficients weight an isotropic basis: 1, sum x_i, sum x_i^2, ...
            self.basis = [Polynomial.constant(1.0)] + [
                sum((Polynomial.variable(v) ** k for v in sv), Polynomial.constant(0.0))
                for k in range(1, max(self.nb, self.nc))
            ]

    def poly(self, coeffs: np.ndarray) -> Polynomial:
        """Bbar or a controller row from its slice of theta."""
        if self.var is not None:
            return Polynomial.univariate(self.var, list(coeffs))
        return sum(
            (float(c) * self.basis[i] for i, c in enumerate(coeffs)), Polynomial.constant(0.0)
        )

    def build(self, theta: np.ndarray) -> CbcCandidate | None:
        """The candidate theta encodes, or None when its leading coefficient
        is not positive or its constants make no candidate."""
        if theta[self.nb - 1] <= 0:
            return None
        ctrl = [self.poly(row) for row in theta[self.nb : self.ncoef].reshape(-1, self.nc)]
        try:
            return CbcCandidate(
                Bbar=self.poly(theta[: self.nb]),
                nu_flow=tuple(ctrl[: self.m]),
                nu_jump=tuple(ctrl[self.m :]),
                **dict(zip(_CONSTANTS, map(float, theta[self.ncoef :]))),
            )
        except ValueError:
            return None

    def score(self, theta: np.ndarray) -> float:
        cand = self.build(theta)
        if cand is None:
            return -math.inf
        self.evals += 1
        try:
            return self.checker.margin(cand)
        except (ValueError, OverflowError):
            return -math.inf

    def proves(self, theta: np.ndarray, score: float) -> bool:
        """Check the candidate theta encodes with ``check_cbc`` when its
        score is positive, keep it and the report in ``proof`` when the
        check proves it, and return whether a proof is held. A score that
        is not positive proves nothing and is not checked."""
        if not score > 0:
            return False
        cand = self.build(theta)
        report = check_cbc(self.model, cand)
        if report.all_hold and report.min_margin > 0:
            self.proof = cand, report
        return self.proof is not None

    def derive_levels(self, theta: np.ndarray) -> None:
        """Set alphabar/etabar just inside the certificate's actual extrema."""
        if self.var is None or theta[self.nb - 1] <= 0:
            return
        B = self.poly(theta[: self.nb])
        lo0, hi0 = self.model.X0[self.var]
        lou, hiu = self.model.Xu[self.var]
        max0 = -min_on_interval(-B, lo0, hi0)[0]
        minu = min_on_interval(B, lou, hiu)[0]
        gap = minu - max0
        if gap <= 0:
            return
        r = self.t.ranges
        theta[-2] = min(max(max0 + 0.25 * gap, r["alphabar"][0]), r["alphabar"][1])
        theta[-1] = min(max(minu - 0.25 * gap, r["etabar"][0]), r["etabar"][1])

    def random_theta(self) -> np.ndarray:
        theta = np.zeros(self.size)
        b = self.rng.uniform(-1.0, 1.0, self.nb)
        b[-1] = abs(b[-1]) + 0.05
        theta[: self.nb] = b
        theta[self.nb : self.ncoef] = self.rng.uniform(-2.0, 2.0, self.ncoef - self.nb)
        theta[self.ncoef :] = [self.rng.uniform(*self.t.ranges[name]) for name in _CONSTANTS]
        self.derive_levels(theta)
        return theta

    def theta_from(self, cand: CbcCandidate) -> np.ndarray:
        if self.var is None:
            raise ValueError("warm start is only supported for one-dimensional state")
        b = cand.Bbar.dense_coeffs(self.var)
        if len(b) > self.nb:
            raise ValueError(
                f"warm-start degree {len(b) - 1} exceeds template degree "
                f"{self.t.cert_degree}"
            )
        if len(cand.nu_flow) != self.m or len(cand.nu_jump) != self.m:
            raise ValueError(f"warm-start controllers must have {self.m} outputs")
        theta = np.zeros(self.size)
        theta[: len(b)] = b
        rows = theta[self.nb : self.ncoef].reshape(-1, self.nc)  # a view into theta
        for row, p in zip(rows, cand.nu_flow + cand.nu_jump):
            c = p.dense_coeffs(self.var)
            if len(c) > self.nc:
                raise ValueError("warm-start controller degree exceeds template")
            row[: len(c)] = c
        theta[self.ncoef :] = [getattr(cand, name) for name in _CONSTANTS]
        return theta

    def bracket(self, index: int, value: float) -> tuple[float, float]:
        if index >= self.ncoef:
            return self.t.ranges[_CONSTANTS[index - self.ncoef]]
        w = max(1.0, abs(value))
        return value - w, value + w

    def refine(self, theta: np.ndarray, score: float, budget: int) -> tuple[np.ndarray, float]:
        """Cyclic per-coordinate golden-section ascent until ``check_cbc``
        proves the candidate (see ``proves``), a sweep stalls, or the budget
        runs out."""
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        # constants are cheap knobs; try them before touching coefficients
        order = list(range(self.ncoef, self.size)) + list(range(self.ncoef))
        improved = True
        while improved and self.proof is None and self.evals < budget:
            improved = False
            for i in order:
                if self.evals >= budget or self.proof is not None:
                    break
                lo, hi = self.bracket(i, theta[i])

                def f(v: float) -> float:
                    trial = theta.copy()
                    trial[i] = v
                    return self.score(trial)

                a, bnd = lo, hi
                c = bnd - invphi * (bnd - a)
                d = a + invphi * (bnd - a)
                fc, fd = f(c), f(d)
                for _ in range(18):
                    if self.evals >= budget:
                        break
                    if fc >= fd:
                        bnd, d, fd = d, c, fc
                        c = bnd - invphi * (bnd - a)
                        fc = f(c)
                    else:
                        a, c, fc = c, d, fd
                        d = a + invphi * (bnd - a)
                        fd = f(d)
                best_v, best_s = (c, fc) if fc >= fd else (d, fd)
                if best_s > score + 1e-12:
                    theta[i] = best_v
                    score = best_s
                    improved = True
                    self.proves(theta, score)
        return theta, score


def search(
    model: SHSModel,
    template: SynthTemplate,
    warm_start: CbcCandidate | None = None,
) -> SynthResult:
    """Look for a feasible candidate within the template's budget.

    Starts from the warm start when given, otherwise from random draws;
    each start is refined coordinate-by-coordinate until check_cbc proves
    it: all five conditions "holds" with a positive least margin. Each
    positive score is checked so, and the search stops at the first
    candidate proved, which is reported feasible with that check's margin.
    Otherwise, when the budget runs out, the best-scoring candidate is
    reported with the status "infeasible-at-budget" and its score as the
    margin (no candidate and -inf when none was built), not an exception.
    Deterministic for a fixed seed. A warm start that does not fit the
    template or the model raises ValueError before the first evaluation.
    """
    s = _Search(model, template)
    best_theta: np.ndarray | None = None
    best_score = -math.inf
    restarts = 0
    theta = s.theta_from(warm_start) if warm_start is not None else None
    while theta is not None or s.evals < template.budget:
        if theta is None:
            theta = s.random_theta()
            restarts += 1
        score = s.score(theta)
        if score > best_score:
            best_score, best_theta = score, theta.copy()
        if not s.proves(theta, score) and s.evals < template.budget:
            theta, score = s.refine(theta, score, template.budget)
            if score > best_score:
                best_score, best_theta = score, theta.copy()
        if s.proof is not None:
            cand, report = s.proof
            return SynthResult(cand, True, report.min_margin, s.evals, restarts, "feasible")
        theta = None

    cand = s.build(best_theta) if best_theta is not None else None
    return SynthResult(cand, False, best_score, s.evals, restarts, "infeasible-at-budget")
