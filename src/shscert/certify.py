"""Barrier-certificate conditions for jump-diffusion models.

The certificate is a nonnegative polynomial B with level-set separation
of the initial and unsafe boxes, a generator decay condition along the
flow and a contraction condition through the jump map, each witnessed by
a polynomial state-feedback controller.
"""

from __future__ import annotations

import math
import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .codec import Codec
from .model import SHSModel
from .poly import IntervalBox, Polynomial, exact_key, nonneg_on_box


@dataclass(frozen=True)
class CbcCandidate(Codec):
    """Certificate polynomial, its constants, and the two controllers.

    The constants are finite; kappa1 may have any sign; kappa2 must be
    positive; the level constants satisfy etabar > alphabar >= 0.
    nu_flow/nu_jump give the input as polynomial state feedback for the
    flow and jump conditions.
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
        for name in ("kappa1", "kappa2", "gamma1", "gamma2", "alphabar", "etabar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kappa2 <= 0:
            raise ValueError("kappa2 > 0 violated")
        for name in ("gamma1", "gamma2", "alphabar", "etabar"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} >= 0 violated")
        if not self.etabar > self.alphabar:
            raise ValueError("etabar > alphabar violated")


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
class ConditionCheck(Codec):
    """One named condition's outcome, with the fields of its NonnegReport."""

    condition: str
    status: str
    margin: float
    witness: dict[str, float] | None = None


@dataclass(frozen=True)
class CbcReport(Codec):
    """Per-condition nonnegativity outcomes of a certificate check: the
    five base conditions (check_cbc) or the lifted ones
    (augment.check_acbc_conditions)."""

    derived_keys = ("all_hold",)

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
        return _least([c.margin for c in self.conditions])


def _least(margins: list[float]) -> float:
    """The smallest margin, or NaN when any margin is NaN."""
    return math.nan if any(map(math.isnan, margins)) else min(margins)


def _report(conditions, domain: IntervalBox) -> CbcReport:
    """Decide each (name, polynomial, box) condition: every status is set here."""
    checks = (ConditionCheck(name, **vars(nonneg_on_box(p, box))) for name, p, box in conditions)
    return CbcReport(tuple(checks), domain)


def flow_condition(cand: CbcCandidate, gen: Polynomial) -> Polynomial:
    """-LB - kappa1 B + gamma1, given the generator gen = LB."""
    return -gen - cand.kappa1 * cand.Bbar + cand.gamma1


def _bits(*xs: float) -> bytes:
    return struct.pack(f"{len(xs)}d", *xs)


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


class CbcChecker:
    """Computes the least margin of candidates of one model on one domain:
    the search's score. It decides no status; check_cbc does.

    Each condition keeps its last margin, keyed on the exact bits of the
    inputs it reads, and is computed again only when one of them changes:

        initial: Bbar, alphabar          unsafe: Bbar, etabar
        flow:    Bbar, nu_flow, kappa1, gamma1
        jump:    Bbar, nu_jump, kappa2, gamma2
        nonneg:  Bbar

    On a miss it also reuses the last generator (keyed on Bbar and
    nu_flow) and the last jump expectation (keyed on Bbar and nu_jump).
    Below that, poly reuses work of its own: ``Polynomial.substitute`` takes
    the powers of a recently substituted polynomial (a Poisson shift
    x + rho, a closed-loop jump map f2(x, nu_jump(x), w)) from a memo, so a
    new Bbar under the same controllers does not expand them again, and
    ``min_on_interval`` reuses the critical points of a recent derivative
    and interval. So a candidate that shares part of its input with the
    previous one is scored faster, and every margin is bitwise equal to a
    fresh ``check_cbc(...).min_margin``. One entry per slot, and poly's
    bounded memos, keep memory bounded.
    """

    def __init__(self, model: SHSModel, domain: IntervalBox | None = None):
        self.model = model
        self.domain = domain if domain is not None else model.X
        self._gen = _Last()
        self._jexp = _Last()
        self._last = defaultdict(_Last)  # one margin per condition

    def _conditions(self, cand: CbcCandidate) -> tuple:
        """(name, key, build, box) of each condition: build returns the
        polynomial to be nonnegative on box, key the bits of what it reads."""
        model, dom, B = self.model, self.domain, cand.Bbar
        bkey = exact_key(B)
        fkey = (bkey, tuple(map(exact_key, cand.nu_flow)))
        jkey = (bkey, tuple(map(exact_key, cand.nu_jump)))

        def flow():
            return flow_condition(cand, self._gen.get(fkey, generator, model, B, cand.nu_flow))

        def jump():
            jexp = self._jexp.get(jkey, jump_expectation, model, B, cand.nu_jump)
            return cand.kappa2 * B + cand.gamma2 - jexp

        return (
            ("initial", (bkey, _bits(cand.alphabar)), lambda: cand.alphabar - B, model.X0),
            ("unsafe", (bkey, _bits(cand.etabar)), lambda: B - cand.etabar, model.Xu),
            ("flow", (fkey, _bits(cand.kappa1, cand.gamma1)), flow, dom),
            ("jump", (jkey, _bits(cand.kappa2, cand.gamma2)), jump, dom),
            ("nonneg", bkey, lambda: B, dom),
        )

    def margin(self, cand: CbcCandidate) -> float:
        """The least of the five margins, NaN when any is NaN."""
        return _least([
            self._last[name].get(key, lambda: nonneg_on_box(build(), box).margin)
            for name, key, build, box in self._conditions(cand)
        ])


def check_cbc(
    model: SHSModel, cand: CbcCandidate, domain: IntervalBox | None = None
) -> CbcReport:
    """Verify the five certificate conditions and report margins.

    initial: alphabar - B on X0;  unsafe: B - etabar on Xu;
    flow: -LB - kappa1 B + gamma1 on the domain;
    jump: kappa2 B + gamma2 - E[B after jump] on the domain;
    nonneg: B on the domain. The domain defaults to the working box X.
    """
    checker = CbcChecker(model, domain)
    conditions = checker._conditions(cand)
    return _report(((name, build(), box) for name, _, build, box in conditions), checker.domain)


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
