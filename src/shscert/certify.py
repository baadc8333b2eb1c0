"""Barrier-certificate conditions for jump-diffusion models.

The certificate is a nonnegative polynomial B with level-set separation
of the initial and unsafe boxes, a generator decay condition along the
flow and a contraction condition through the jump map, each witnessed by
a polynomial state-feedback controller.
"""

from __future__ import annotations

import json
import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import SHSModel
from .poly import IntervalBox, NonnegReport, Polynomial, interval_candidates, nonneg_on_box


@dataclass(frozen=True)
class CbcCandidate:
    """Certificate polynomial, its constants, and the two controllers.

    kappa1 may have any sign; kappa2 must be positive; the level constants
    satisfy etabar > alphabar >= 0. nu_flow/nu_jump give the input as
    polynomial state feedback for the flow and jump conditions.
    """

    Bbar: Polynomial
    kappa1: float
    kappa2: float
    gamma1: float
    gamma2: float
    alphabar: float
    etabar: float
    nu_flow: tuple[Polynomial, ...]
    nu_jump: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.kappa2 <= 0:
            raise ValueError("kappa2 > 0 violated")
        for name in ("gamma1", "gamma2", "alphabar", "etabar"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} >= 0 violated")
        if not self.etabar > self.alphabar:
            raise ValueError("etabar > alphabar violated")

    def to_dict(self) -> dict:
        return {
            "Bbar": self.Bbar.to_dict(),
            "kappa1": self.kappa1,
            "kappa2": self.kappa2,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "alphabar": self.alphabar,
            "etabar": self.etabar,
            "nu_flow": [p.to_dict() for p in self.nu_flow],
            "nu_jump": [p.to_dict() for p in self.nu_jump],
        }

    @staticmethod
    def from_dict(doc: Mapping) -> "CbcCandidate":
        return CbcCandidate(
            Bbar=Polynomial.from_dict(doc["Bbar"]),
            kappa1=float(doc["kappa1"]),
            kappa2=float(doc["kappa2"]),
            gamma1=float(doc["gamma1"]),
            gamma2=float(doc["gamma2"]),
            alphabar=float(doc["alphabar"]),
            etabar=float(doc["etabar"]),
            nu_flow=tuple(Polynomial.from_dict(p) for p in doc["nu_flow"]),
            nu_jump=tuple(Polynomial.from_dict(p) for p in doc["nu_jump"]),
        )

    @staticmethod
    def from_json(text: str) -> "CbcCandidate":
        return CbcCandidate.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _controller_map(model: SHSModel, controller: Sequence[Polynomial]) -> dict:
    if len(controller) != model.m:
        raise ValueError(
            f"controller has {len(controller)} outputs, input dimension is {model.m}"
        )
    return dict(zip(model.input_vars, controller))


def generator(
    model: SHSModel,
    Bbar: Polynomial,
    nu_flow: Sequence[Polynomial] | None = None,
) -> Polynomial:
    """Generator of the flow applied to Bbar, as one polynomial.

    dB/dx . f1 + (1/2) Tr(sigma sigma^T d2B/dx2)
    + sum_j rate_j (B(x + rho_j(x)) - B(x)).

    With nu_flow given, the controller is substituted into f1 first and the
    result is a polynomial in the state alone; otherwise the input variables
    stay symbolic.
    """
    sv = model.state_vars
    if len(model.f1) != model.n:
        raise ValueError("drift dimension does not match state dimension")
    f1 = model.f1
    if nu_flow is not None:
        cmap = _controller_map(model, nu_flow)
        f1 = tuple(p.substitute(cmap) for p in f1)

    out = Polynomial.constant(0.0)
    grads = {v: Bbar.derivative(v) for v in sv}
    for v, fi in zip(sv, f1):
        out = out + grads[v] * fi

    b = model.brownian_dim
    for i, vi in enumerate(sv):
        for k, vk in enumerate(sv):
            hess = grads[vi].derivative(vk)
            if hess.is_zero():
                continue
            cov = Polynomial.constant(0.0)
            for j in range(b):
                cov = cov + model.sigma[i][j] * model.sigma[k][j]
            out = out + 0.5 * cov * hess

    for j, lam in enumerate(model.rates):
        if lam == 0.0:
            continue
        shift = {
            v: Polynomial.variable(v) + model.rho[i][j] for i, v in enumerate(sv)
        }
        out = out + lam * (Bbar.substitute(shift) - Bbar)
    return out


def jump_expectation(
    model: SHSModel,
    Bbar: Polynomial,
    nu_jump: Sequence[Polynomial] | None = None,
) -> Polynomial:
    """Expected certificate value after one jump, E[B(f2(x, nu, w))].

    Composes Bbar with the jump map and integrates out the noise variables
    with the model's moment data. With nu_jump given, the controller is
    substituted first; otherwise the input variables stay symbolic.
    """
    f2 = model.f2
    if nu_jump is not None:
        cmap = _controller_map(model, nu_jump)
        f2 = tuple(p.substitute(cmap) for p in f2)
    composed = Bbar.substitute(dict(zip(model.state_vars, f2)))
    mom = dict(zip(model.noise_vars, model.noise.moments))
    return composed.expect(mom)


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    report: NonnegReport

    @property
    def status(self) -> str:
        return self.report.status

    @property
    def margin(self) -> float:
        return self.report.margin

    def to_dict(self) -> dict:
        return {"condition": self.condition, **self.report.to_dict()}


@dataclass(frozen=True)
class CbcReport:
    """Per-condition nonnegativity outcomes for one candidate."""

    conditions: tuple[ConditionCheck, ...]
    domain: IntervalBox

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.conditions:
            if c.condition == name:
                return c
        raise KeyError(name)

    @property
    def all_hold(self) -> bool:
        return all(c.status == "holds" for c in self.conditions)

    @property
    def any_fail(self) -> bool:
        return any(c.status == "fails" for c in self.conditions)

    @property
    def min_margin(self) -> float:
        return min(c.margin for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "conditions": [c.to_dict() for c in self.conditions],
            "all_hold": self.all_hold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def flow_condition(cand: CbcCandidate, gen: Polynomial) -> Polynomial:
    """-LB - kappa1 B + gamma1, given the generator gen = LB."""
    return -gen - cand.kappa1 * cand.Bbar + cand.gamma1


def _exact(p: Polynomial) -> tuple:
    """Key equal for two polynomials only if their variables, ordered
    terms and coefficient bits are; Polynomial.__eq__ ignores term order."""
    coefs = tuple(p.terms.values())
    return p.vars, tuple(p.terms), struct.pack(f"{len(coefs)}d", *coefs)


class _Last:
    """The last result of one computation, reused while its key repeats."""

    def __init__(self):
        self.key = None
        self.value = None

    def get(self, key, compute, *args):
        if key != self.key:
            self.value = compute(*args)
            self.key = key
        return self.value


class _CandidateSlot(_Last):
    """interval_candidates, reused while the derivative coefficients and
    the interval repeat bit for bit."""

    def __call__(self, dp, a, b):
        key = struct.pack(f"{len(dp) + 2}d", a, b, *dp)
        return self.get(key, interval_candidates, dp, a, b)


class CbcChecker:
    """Checks candidates of one model on one domain, as check_cbc does.

    It keeps the last generator (keyed on Bbar and nu_flow), the last jump
    expectation (keyed on Bbar and nu_jump) and, for each condition, the
    last univariate candidate set, and reuses each while its input repeats
    bit for bit. So a candidate that shares part of its input with the
    previous one is checked faster, and every report is bitwise equal to a
    fresh check. One entry per slot keeps memory bounded.
    """

    def __init__(self, model: SHSModel, domain: IntervalBox | None = None):
        self.model = model
        self.domain = domain if domain is not None else model.X
        self._gen = _Last()
        self._jexp = _Last()
        self._candidates = defaultdict(_CandidateSlot)  # one slot per condition

    def check(self, cand: CbcCandidate) -> CbcReport:
        model, dom, B = self.model, self.domain, cand.Bbar
        bkey = _exact(B)
        gen = self._gen.get(
            (bkey, tuple(map(_exact, cand.nu_flow))), generator, model, B, cand.nu_flow
        )
        jexp = self._jexp.get(
            (bkey, tuple(map(_exact, cand.nu_jump))), jump_expectation, model, B, cand.nu_jump
        )
        checks = (
            ("initial", cand.alphabar - B, model.X0),
            ("unsafe", B - cand.etabar, model.Xu),
            ("flow", flow_condition(cand, gen), dom),
            ("jump", cand.kappa2 * B + cand.gamma2 - jexp, dom),
            ("nonneg", B, dom),
        )
        results = tuple(
            ConditionCheck(name, nonneg_on_box(expr, box, candidates=self._candidates[name]))
            for name, expr, box in checks
        )
        return CbcReport(results, dom)


def check_cbc(
    model: SHSModel, cand: CbcCandidate, domain: IntervalBox | None = None
) -> CbcReport:
    """Verify the five certificate conditions and report margins.

    initial: alphabar - B on X0;  unsafe: B - etabar on Xu;
    flow: -LB - kappa1 B + gamma1 on the domain;
    jump: kappa2 B + gamma2 - E[B after jump] on the domain;
    nonneg: B on the domain. The domain defaults to the working box X.
    """
    return CbcChecker(model, domain).check(cand)


@dataclass(frozen=True)
class SosMultipliers:
    """Multiplier vectors pairing the box inequality descriptions.

    initial/unsafe multipliers are sized to the inequality vectors of X0
    and Xu; domain/input multipliers to those of X and the input box (an
    unconstrained input contributes no inequalities). Missing entries
    default to zero, which drops the corresponding product term.
    """

    initial: tuple[Polynomial, ...] = ()
    unsafe: tuple[Polynomial, ...] = ()
    flow_domain: tuple[Polynomial, ...] = ()
    flow_input: tuple[Polynomial, ...] = ()
    jump_domain: tuple[Polynomial, ...] = ()
    jump_input: tuple[Polynomial, ...] = ()


def _dot(mult: Sequence[Polynomial], ineqs: Sequence[Polynomial], label: str) -> Polynomial:
    if mult and len(mult) != len(ineqs):
        raise ValueError(
            f"{label}: {len(mult)} multipliers for {len(ineqs)} inequalities"
        )
    out = Polynomial.constant(0.0)
    for m, g in zip(mult, ineqs):
        out = out + m * g
    return out


def assemble_sos(
    model: SHSModel,
    cand: CbcCandidate,
    multipliers: SosMultipliers | None = None,
    input_box: IntervalBox | None = None,
    substitute_controllers: bool = False,
) -> dict[str, Polynomial]:
    """Assemble the four certificate expressions whose nonnegativity
    (sum-of-squares membership) implies the certificate conditions.

    initial: alphabar - B - <l0, g0>
    unsafe:  B - etabar - <lu, gu>
    flow:    -LB - kappa1 B + gamma1 - sum_j (nu_j - nuflow_j) - <l, g> - <lnu, gnu>
    jump:    -E[B after jump] + kappa2 B + gamma2 - sum_j (nu_j - nujump_j)
             - <lhat, g> - <lhatnu, gnu>

    The flow and jump expressions keep the input variables symbolic; the
    (nu_j - controller_j) differences encode the feedback equations. With
    substitute_controllers=True the controllers are plugged in, the
    difference terms vanish and the expressions depend on the state only.
    """
    mult = multipliers or SosMultipliers()
    g0 = model.X0.inequalities()
    gu = model.Xu.inequalities()
    g = model.X.inequalities()
    gnu = input_box.inequalities() if input_box is not None else []

    B = cand.Bbar
    gen = generator(model, B, None)
    jexp = jump_expectation(model, B, None)

    ctrl_flow = Polynomial.constant(0.0)
    ctrl_jump = Polynomial.constant(0.0)
    for v, lf, lj in zip(model.input_vars, cand.nu_flow, cand.nu_jump):
        nu = Polynomial.variable(v)
        ctrl_flow = ctrl_flow + (nu - lf)
        ctrl_jump = ctrl_jump + (nu - lj)

    exprs = {
        "initial": cand.alphabar - B - _dot(mult.initial, g0, "initial"),
        "unsafe": B - cand.etabar - _dot(mult.unsafe, gu, "unsafe"),
        "flow": -gen
        - cand.kappa1 * B
        + cand.gamma1
        - ctrl_flow
        - _dot(mult.flow_domain, g, "flow-domain")
        - _dot(mult.flow_input, gnu, "flow-input"),
        "jump": -jexp
        + cand.kappa2 * B
        + cand.gamma2
        - ctrl_jump
        - _dot(mult.jump_domain, g, "jump-domain")
        - _dot(mult.jump_input, gnu, "jump-input"),
    }
    if substitute_controllers:
        fmap = _controller_map(model, cand.nu_flow)
        jmap = _controller_map(model, cand.nu_jump)
        exprs["flow"] = exprs["flow"].substitute(fmap)
        exprs["jump"] = exprs["jump"].substitute(jmap)
    return exprs
