"""Lifting a verified certificate to the augmented (counter-carrying) system.

The lifted certificate is B(x, z) = beta(z) * B(x) with beta shaped by the
sign regime of the decay constants. Three regimes are supported:

  R1: kappa1 > 0 and 0 < kappa2 < 1   -> beta = 1
  R2: kappa1 > 0 and kappa2 >= 1      -> beta = exp(kappa1 tau eps1 z)
  R3: kappa1 <= 0 and 0 < kappa2 < 1  -> beta = kappa2^(z / eps2)

The remaining quadrant (kappa1 <= 0, kappa2 >= 1) admits no construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from .certify import (
    CbcCandidate,
    ConditionCheck,
    flow_condition,
    generator,
    jump_expectation,
)
from .model import JumpParams, SHSModel
from .poly import IntervalBox, NonnegReport, nonneg_on_box

R1 = "R1"
R2 = "R2"
R3 = "R3"


def _regime(kappa1: float, kappa2: float) -> str:
    if kappa1 > 0 and 0 < kappa2 < 1:
        return R1
    if kappa1 > 0 and kappa2 >= 1:
        return R2
    if kappa1 <= 0 and 0 < kappa2 < 1:
        return R3
    raise ValueError(
        f"unsupported regime: kappa1={kappa1}, kappa2={kappa2} "
        "(no construction exists for kappa1 <= 0 with kappa2 >= 1)"
    )


@dataclass(frozen=True)
class Acbc:
    """Lifted certificate: base candidate, regime tag, and the constants
    feeding the finite-horizon safety bound."""

    base: CbcCandidate
    jump: JumpParams
    regime: str
    eps1: float
    eps2: float
    alpha: float
    eta: float
    kappa: float
    gamma: float
    beta_alpha: float
    beta_eta: float

    def beta(self, z: int) -> float:
        """Counter weight beta(z); defined for 0 <= z <= q2."""
        if not 0 <= z <= self.jump.q2:
            raise ValueError(f"counter z={z} outside 0..{self.jump.q2}")
        if self.regime == R1:
            return 1.0
        if self.regime == R2:
            return math.exp(self.base.kappa1 * self.jump.tau * self.eps1 * z)
        return self.base.kappa2 ** (z / self.eps2)

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "jump": self.jump.to_dict(),
            "regime": self.regime,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "alpha": self.alpha,
            "eta": self.eta,
            "kappa": self.kappa,
            "gamma": self.gamma,
            "beta_alpha": self.beta_alpha,
            "beta_eta": self.beta_eta,
        }

    @staticmethod
    def from_dict(doc: Mapping) -> "Acbc":
        return Acbc(
            base=CbcCandidate.from_dict(doc["base"]),
            jump=JumpParams.from_dict(doc["jump"]),
            regime=str(doc["regime"]),
            eps1=float(doc["eps1"]),
            eps2=float(doc["eps2"]),
            alpha=float(doc["alpha"]),
            eta=float(doc["eta"]),
            kappa=float(doc["kappa"]),
            gamma=float(doc["gamma"]),
            beta_alpha=float(doc["beta_alpha"]),
            beta_eta=float(doc["beta_eta"]),
        )

    @staticmethod
    def from_json(text: str) -> "Acbc":
        return Acbc.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def construct_acbc(
    cand: CbcCandidate,
    jump: JumpParams,
    eps1: float = 0.1,
    eps2: float | None = None,
) -> Acbc:
    """Build the lifted certificate constants for the candidate's regime.

    eps1 must lie in (0, 1) and eps2 above q2 (default q2 + 1). Raises if
    the regime is unsupported, the separation condition
    beta_eta * etabar > beta_alpha * alphabar fails, the per-counter decay
    condition ln(kappa2) - kappa1 tau z < 0 fails for some z in q1..q2, or
    the resulting kappa leaves (0, 1).
    """
    if eps2 is None:
        eps2 = float(jump.q2 + 1)
    if not 0 < eps1 < 1:
        raise ValueError(f"eps1 must be in (0, 1), got {eps1}")
    if not eps2 > jump.q2:
        raise ValueError(f"eps2 must exceed q2={jump.q2}, got {eps2}")

    k1, k2 = cand.kappa1, cand.kappa2
    tau, q1, q2 = jump.tau, jump.q1, jump.q2
    regime = _regime(k1, k2)

    if regime == R1:
        beta_eta = 1.0
        beta_alpha = 1.0
        kappa = max(math.exp(-k1 * tau), k2)
        gamma = max(math.exp(-k1 * tau) * tau * cand.gamma1, cand.gamma2)
    elif regime == R2:
        beta_eta = math.exp(k1 * tau * eps1 * q1)
        beta_alpha = math.exp(k1 * tau * eps1 * q2)
        kappa = max(
            math.exp(-k1 * tau * (1 - eps1)),
            math.exp(-k1 * tau * eps1 * q1) * k2,
        )
        gamma = max(
            math.exp(k1 * tau * eps1 * q2) * math.exp(-k1 * tau) * tau * cand.gamma1,
            cand.gamma2,
        )
    else:
        beta_eta = k2 ** (q2 / eps2)
        beta_alpha = k2 ** (q1 / eps2)
        kappa = max(
            math.exp(-k1 * tau) * k2 ** (1 / eps2),
            k2 ** ((eps2 - q2) / eps2),
        )
        gamma = max(
            k2 ** (1 / eps2) * math.exp(-k1 * tau) * tau * cand.gamma1,
            cand.gamma2,
        )

    if not beta_eta * cand.etabar > beta_alpha * cand.alphabar:
        raise ValueError(
            "separation condition violated: "
            f"beta_eta*etabar = {beta_eta * cand.etabar:.6g} must exceed "
            f"beta_alpha*alphabar = {beta_alpha * cand.alphabar:.6g}"
        )
    for z in range(q1, q2 + 1):
        if not math.log(k2) - k1 * tau * z < 0:
            raise ValueError(
                f"per-counter decay condition violated at z={z}: "
                f"ln(kappa2) - kappa1*tau*z = {math.log(k2) - k1 * tau * z:.6g}"
            )
    if not 0 < kappa < 1:
        raise ValueError(f"lifted decay rate kappa={kappa:.6g} outside (0, 1)")

    return Acbc(
        base=cand,
        jump=jump,
        regime=regime,
        eps1=eps1,
        eps2=eps2,
        alpha=beta_alpha * cand.alphabar,
        eta=beta_eta * cand.etabar,
        kappa=kappa,
        gamma=gamma,
        beta_alpha=beta_alpha,
        beta_eta=beta_eta,
    )


def beta(acbc: Acbc, z: int) -> float:
    return acbc.beta(z)


@dataclass(frozen=True)
class AcbcReport:
    """Condition-by-condition outcome of the lifted certificate checks."""

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

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "conditions": [c.to_dict() for c in self.conditions],
            "all_hold": self.all_hold,
        }


def check_acbc_conditions(
    model: SHSModel, acbc: Acbc, domain: IntervalBox | None = None
) -> AcbcReport:
    """Check the lifted certificate's level and one-step decay conditions.

    Level conditions: alpha - beta(0) B on X0, and beta(z) B - eta on Xu
    for every counter value. The one-step expectation condition is checked
    semi-analytically per counter: the flow scenario uses the exponential
    relaxation bound E[B(x(tau-))] <= exp(-kappa1 tau)(B(x) + tau gamma1),
    the jump scenario the exact post-jump expectation polynomial; each is
    compared against kappa beta(z) B + gamma on the domain. The relaxation
    rests on the base flow condition LB <= -kappa1 B + gamma1, so that is
    checked on the domain as well ("flow[base]").
    """
    dom = domain if domain is not None else model.X
    cand = acbc.base
    B = cand.Bbar
    jp = acbc.jump
    checks: list[ConditionCheck] = []

    const_margin = min(acbc.eta - acbc.alpha, acbc.kappa, 1 - acbc.kappa, acbc.gamma)
    const_status = (
        "holds" if (acbc.eta > acbc.alpha and 0 < acbc.kappa < 1 and acbc.gamma >= 0)
        else "fails"
    )
    checks.append(
        ConditionCheck("constants", NonnegReport(const_status, const_margin, None))
    )

    checks.append(
        ConditionCheck(
            "initial", nonneg_on_box(acbc.alpha - acbc.beta(0) * B, model.X0)
        )
    )
    for z in range(jp.q2 + 1):
        checks.append(
            ConditionCheck(
                f"unsafe[z={z}]",
                nonneg_on_box(acbc.beta(z) * B - acbc.eta, model.Xu),
            )
        )

    gen = generator(model, B, cand.nu_flow)
    checks.append(
        ConditionCheck("flow[base]", nonneg_on_box(flow_condition(cand, gen), dom))
    )
    decay = math.exp(-cand.kappa1 * jp.tau)
    jexp = jump_expectation(model, B, cand.nu_jump)
    for z in range(jp.q2 + 1):
        if z <= jp.q2 - 1:
            expr = (
                acbc.kappa * acbc.beta(z) * B
                + acbc.gamma
                - acbc.beta(z + 1) * decay * (B + jp.tau * cand.gamma1)
            )
            checks.append(ConditionCheck(f"flow[z={z}]", nonneg_on_box(expr, dom)))
        if jp.q1 <= z <= jp.q2:
            expr = acbc.kappa * acbc.beta(z) * B + acbc.gamma - acbc.beta(0) * jexp
            checks.append(ConditionCheck(f"jump[z={z}]", nonneg_on_box(expr, dom)))

    return AcbcReport(tuple(checks), dom)
