"""Randomized search for certificate candidates.

The verifier's condition margins give a scalar feasibility objective
(min margin over the five checks, positive = feasible). The search runs
multi-start random initialization followed by per-coordinate
golden-section refinement, optionally warm-started from a user-supplied
candidate. Everything is driven by one seed and re-verifies the final
candidate independently before calling it feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .certify import CbcCandidate, CbcChecker, check_cbc
from .model import SHSModel
from .poly import IntervalBox, Polynomial, min_on_interval

_INVALID = -1.0e9

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
class SynthTemplate:
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
        merged = dict(DEFAULT_RANGES)
        merged.update(self.ranges)
        object.__setattr__(self, "ranges", merged)
        for name in _CONSTANTS:
            lo, hi = merged[name]
            if lo > hi:
                raise ValueError(f"range for {name} is empty: [{lo}, {hi}]")
        if merged["kappa2"][1] <= 0:
            raise ValueError("kappa2 range must allow positive values")
        if merged["etabar"][1] <= merged["alphabar"][0]:
            raise ValueError(
                "etabar range lies below alphabar range; separation "
                "etabar > alphabar is unreachable"
            )

    @staticmethod
    def from_dict(doc: Mapping) -> "SynthTemplate":
        ranges = {k: (float(v[0]), float(v[1])) for k, v in doc.get("ranges", {}).items()}
        return SynthTemplate(
            cert_degree=int(doc.get("cert_degree", 4)),
            controller_degree=int(doc.get("controller_degree", 1)),
            ranges=ranges,
            budget=int(doc.get("budget", 10_000)),
            seed=int(doc.get("seed", 0)),
        )

    def to_dict(self) -> dict:
        return {
            "cert_degree": self.cert_degree,
            "controller_degree": self.controller_degree,
            "ranges": {k: list(v) for k, v in self.ranges.items()},
            "budget": self.budget,
            "seed": self.seed,
        }


def margin_objective(
    model: SHSModel, cand: CbcCandidate, domain: IntervalBox | None = None
) -> float:
    """Smallest of the five certificate-condition margins (positive = feasible)."""
    return check_cbc(model, cand, domain).min_margin


@dataclass(frozen=True)
class SynthResult:
    candidate: CbcCandidate | None
    feasible: bool
    margin: float
    evaluations: int
    restarts: int
    status: str

    def to_dict(self) -> dict:
        return {
            "candidate": None if self.candidate is None else self.candidate.to_dict(),
            "feasible": self.feasible,
            "margin": self.margin,
            "evaluations": self.evaluations,
            "restarts": self.restarts,
            "status": self.status,
        }


class _Search:
    def __init__(self, model: SHSModel, template: SynthTemplate, domain: IntervalBox | None):
        self.model = model
        self.t = template
        self.rng = np.random.default_rng(template.seed)
        self.evals = 0
        # one checker per search: each evaluation reuses the previous one's work
        self.checker = CbcChecker(model, domain)
        self.var = model.state_vars[0] if model.n == 1 else None
        self.nb = template.cert_degree + 1
        self.nc = template.controller_degree + 1
        self.m = model.m

    # parameter vector layout: cert coeffs | flow ctrl coeffs | jump ctrl
    # coeffs | six constants
    def split(self, theta: np.ndarray):
        nb, nc, m = self.nb, self.nc, self.m
        b = theta[:nb]
        flow = theta[nb : nb + m * nc].reshape(m, nc)
        jump = theta[nb + m * nc : nb + 2 * m * nc].reshape(m, nc)
        consts = theta[nb + 2 * m * nc :]
        return b, flow, jump, consts

    def size(self) -> int:
        return self.nb + 2 * self.m * self.nc + len(_CONSTANTS)

    def build(self, theta: np.ndarray) -> CbcCandidate | None:
        b, flow, jump, consts = self.split(theta)
        c = dict(zip(_CONSTANTS, consts))
        if c["kappa2"] <= 0 or not c["etabar"] > c["alphabar"]:
            return None
        if min(c["gamma1"], c["gamma2"], c["alphabar"], c["etabar"]) < 0:
            return None
        if b[-1] <= 0:
            return None
        sv = self.model.state_vars
        if self.model.n == 1:
            B = Polynomial.univariate(sv[0], list(b))
            ctrl_f = tuple(Polynomial.univariate(sv[0], list(row)) for row in flow)
            ctrl_j = tuple(Polynomial.univariate(sv[0], list(row)) for row in jump)
        else:
            # coefficients weight an isotropic basis: 1, sum x_i, sum x_i^2, ...
            basis = [Polynomial.constant(1.0)]
            for k in range(1, self.nb):
                basis.append(
                    sum((Polynomial.variable(v) ** k for v in sv), Polynomial.constant(0.0))
                )
            B = sum((float(ci) * basis[i] for i, ci in enumerate(b)), Polynomial.constant(0.0))
            ctrl_f = tuple(
                sum((float(ci) * basis[i] for i, ci in enumerate(row)), Polynomial.constant(0.0))
                for row in flow
            )
            ctrl_j = tuple(
                sum((float(ci) * basis[i] for i, ci in enumerate(row)), Polynomial.constant(0.0))
                for row in jump
            )
        return CbcCandidate(
            Bbar=B,
            kappa1=float(c["kappa1"]),
            kappa2=float(c["kappa2"]),
            gamma1=float(c["gamma1"]),
            gamma2=float(c["gamma2"]),
            alphabar=float(c["alphabar"]),
            etabar=float(c["etabar"]),
            nu_flow=ctrl_f,
            nu_jump=ctrl_j,
        )

    def score(self, theta: np.ndarray) -> float:
        cand = self.build(theta)
        if cand is None:
            return _INVALID
        self.evals += 1
        try:
            return self.checker.check(cand).min_margin
        except (ValueError, OverflowError):
            return _INVALID

    def derive_levels(self, theta: np.ndarray) -> None:
        """Set alphabar/etabar just inside the certificate's actual extrema."""
        cand = self.build_levels_probe(theta)
        if cand is None or self.model.n != 1:
            return
        B = cand
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

    def build_levels_probe(self, theta: np.ndarray) -> Polynomial | None:
        b = self.split(theta)[0]
        if b[-1] <= 0 or self.model.n != 1:
            return None
        return Polynomial.univariate(self.var, list(b))

    def random_theta(self) -> np.ndarray:
        theta = np.zeros(self.size())
        b = self.rng.uniform(-1.0, 1.0, self.nb)
        b[-1] = abs(b[-1]) + 0.05
        theta[: self.nb] = b
        theta[self.nb : self.nb + 2 * self.m * self.nc] = self.rng.uniform(
            -2.0, 2.0, 2 * self.m * self.nc
        )
        for i, name in enumerate(_CONSTANTS):
            lo, hi = self.t.ranges[name]
            theta[self.nb + 2 * self.m * self.nc + i] = self.rng.uniform(lo, hi)
        self.derive_levels(theta)
        return theta

    def theta_from(self, cand: CbcCandidate) -> np.ndarray:
        theta = np.zeros(self.size())
        b = cand.Bbar.dense_coeffs(self.var) if self.model.n == 1 else None
        if b is None:
            raise ValueError("warm start is only supported for one-dimensional state")
        if len(b) > self.nb:
            raise ValueError(
                f"warm-start degree {len(b) - 1} exceeds template degree "
                f"{self.t.cert_degree}"
            )
        theta[: len(b)] = b
        for j in range(self.m):
            cf = cand.nu_flow[j].dense_coeffs(self.var)
            cj = cand.nu_jump[j].dense_coeffs(self.var)
            if max(len(cf), len(cj)) > self.nc:
                raise ValueError("warm-start controller degree exceeds template")
            theta[self.nb + j * self.nc : self.nb + j * self.nc + len(cf)] = cf
            base = self.nb + self.m * self.nc
            theta[base + j * self.nc : base + j * self.nc + len(cj)] = cj
        for i, name in enumerate(_CONSTANTS):
            theta[self.nb + 2 * self.m * self.nc + i] = getattr(cand, name)
        return theta

    def bracket(self, index: int, value: float) -> tuple[float, float]:
        ncoef = self.nb + 2 * self.m * self.nc
        if index >= ncoef:
            lo, hi = self.t.ranges[_CONSTANTS[index - ncoef]]
            return lo, hi
        w = max(1.0, abs(value))
        return value - w, value + w

    def refine(self, theta: np.ndarray, score: float, budget: int) -> tuple[np.ndarray, float]:
        """Cyclic per-coordinate golden-section ascent until the margin turns
        positive, a sweep stalls, or the budget runs out."""
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        # constants are cheap knobs; try them before touching coefficients
        ncoef = self.nb + 2 * self.m * self.nc
        order = list(range(ncoef, self.size())) + list(range(ncoef))
        improved = True
        while improved and score <= 0 and self.evals < budget:
            improved = False
            for i in order:
                if self.evals >= budget or score > 0:
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
        return theta, score


def search(
    model: SHSModel,
    template: SynthTemplate,
    warm_start: CbcCandidate | None = None,
    domain: IntervalBox | None = None,
) -> SynthResult:
    """Look for a feasible candidate within the template's budget.

    Starts from the warm start when given, otherwise from random draws;
    each start is refined coordinate-by-coordinate against the margin
    objective. Deterministic for a fixed seed. The best candidate is
    re-verified with an independent check before being reported feasible;
    running out of budget yields status "infeasible-at-budget" instead of
    an exception.
    """
    s = _Search(model, template, domain)
    best_theta: np.ndarray | None = None
    best_score = -math.inf
    restarts = 0

    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(s.theta_from(warm_start))

    while True:
        if starts:
            theta = starts.pop(0)
        else:
            if s.evals >= template.budget:
                break
            theta = s.random_theta()
            restarts += 1
        score = s.score(theta)
        if score > best_score:
            best_score, best_theta = score, theta.copy()
        if s.evals < template.budget:
            theta, score = s.refine(theta, score, template.budget)
            if score > best_score:
                best_score, best_theta = score, theta.copy()
        if best_score > 0 or s.evals >= template.budget:
            break

    cand = s.build(best_theta) if best_theta is not None else None
    if cand is None:
        return SynthResult(None, False, -math.inf, s.evals, restarts, "infeasible-at-budget")
    verified = margin_objective(model, cand, domain)
    feasible = verified > 0
    return SynthResult(
        candidate=cand,
        feasible=feasible,
        margin=verified,
        evaluations=s.evals,
        restarts=restarts,
        status="feasible" if feasible else "infeasible-at-budget",
    )
