"""Lifting a verified certificate to the augmented (counter-carrying) system.

The lifted certificate is B(x, z) = beta(z) * B(x) with beta shaped by the
sign regime of the decay constants. Three regimes are supported:

  R1: kappa1 > 0 and 0 < kappa2 < 1   -> beta = 1
  R2: kappa1 > 0 and kappa2 >= 1      -> beta = exp(kappa1 tau eps1 z)
  R3: kappa1 <= 0 and 0 < kappa2 < 1  -> beta = kappa2^(z / eps2)

The remaining quadrant (kappa1 <= 0, kappa2 >= 1) admits no construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .certify import (
    CbcCandidate,
    CbcReport,
    ConditionCheck,
    flow_condition,
    generator,
    jump_expectation,
)
from .codec import Codec
from .model import FLOW, JUMP, JumpParams, SHSModel
from .poly import nonneg_on_box

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
class Acbc(Codec):
    """Lifted certificate: base candidate, regime tag, and the constants
    feeding the finite-horizon safety bound.

    The constructor enforces what ``construct_acbc`` guarantees: finite
    constants, the regime of the base's (kappa1, kappa2), 0 < eps1 < 1,
    eps2 > q2, the separation eta > alpha >= 0, the per-counter decay
    condition ln(kappa2) - kappa1 tau z < 0 for z in q1..q2, 0 < kappa < 1
    and gamma >= 0. It raises ``ValueError`` at the first one that fails.
    """

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

    def __post_init__(self):
        for name in ("eps1", "eps2", "alpha", "eta", "kappa", "gamma", "beta_alpha", "beta_eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        k1, k2, jp = self.base.kappa1, self.base.kappa2, self.jump
        if self.regime != _regime(k1, k2):
            raise ValueError(f"regime {self.regime!r} does not match kappa1={k1}, kappa2={k2}")
        if not 0 < self.eps1 < 1:
            raise ValueError(f"eps1 must be in (0, 1), got {self.eps1}")
        if not self.eps2 > jp.q2:
            raise ValueError(f"eps2 must exceed q2={jp.q2}, got {self.eps2}")
        if not self.eta > self.alpha:
            raise ValueError(
                "separation condition violated: "
                f"beta_eta*etabar = {self.eta:.6g} must exceed "
                f"beta_alpha*alphabar = {self.alpha:.6g}"
            )
        if self.alpha < 0:
            raise ValueError("alpha >= 0 violated")
        for z in range(jp.q1, jp.q2 + 1):
            if not math.log(k2) - k1 * jp.tau * z < 0:
                raise ValueError(
                    f"per-counter decay condition violated at z={z}: "
                    f"ln(kappa2) - kappa1*tau*z = {math.log(k2) - k1 * jp.tau * z:.6g}"
                )
        if not 0 < self.kappa < 1:
            raise ValueError(f"lifted decay rate kappa={self.kappa:.6g} outside (0, 1)")
        if self.gamma < 0:
            raise ValueError("gamma >= 0 violated")

    @cached_property
    def weights(self) -> tuple[float, ...]:
        """The counter weights beta(0), ..., beta(q2)."""
        return _weights(self.regime, self.base, self.jump, self.eps1, self.eps2)

    def beta(self, z: int) -> float:
        """Counter weight beta(z); defined for 0 <= z <= q2."""
        if not 0 <= z <= self.jump.q2:
            raise ValueError(f"counter z={z} outside 0..{self.jump.q2}")
        return self.weights[z]


def _weights(regime: str, cand: CbcCandidate, jump: JumpParams, eps1: float, eps2: float) -> tuple:
    """beta(0), ..., beta(q2) by the regime's formula (module docstring)."""
    if regime == R1:
        return (1.0,) * (jump.q2 + 1)
    if regime == R2:
        return tuple(math.exp(cand.kappa1 * jump.tau * eps1 * z) for z in range(jump.q2 + 1))
    return tuple(cand.kappa2 ** (z / eps2) for z in range(jump.q2 + 1))


def construct_acbc(
    cand: CbcCandidate,
    jump: JumpParams,
    eps1: float = 0.1,
    eps2: float | None = None,
) -> Acbc:
    """Build the lifted certificate constants for the candidate's regime.

    eps1 must lie in (0, 1) and eps2 above q2 (default q2 + 1). Raises
    ``ValueError`` if the regime is unsupported, a constant overflows, or
    the result breaks an invariant of ``Acbc``: the separation condition
    beta_eta * etabar > beta_alpha * alphabar, the per-counter decay
    condition, or kappa in (0, 1).
    """
    if eps2 is None:
        eps2 = float(jump.q2 + 1)
    if not eps2 > jump.q2:
        raise ValueError(f"eps2 must exceed q2={jump.q2}, got {eps2}")

    k1, k2 = cand.kappa1, cand.kappa2
    tau, q1, q2 = jump.tau, jump.q1, jump.q2
    regime = _regime(k1, k2)

    try:
        weights = _weights(regime, cand, jump, eps1, eps2)
        beta_eta, beta_alpha = sorted((weights[q1], weights[q2]))
        decay = math.exp(-k1 * tau)
        if regime == R1:
            kappa = max(decay, k2)
        elif regime == R2:
            kappa = max(math.exp(-k1 * tau * (1 - eps1)), math.exp(-k1 * tau * eps1 * q1) * k2)
        else:
            kappa = max(decay * k2 ** (1 / eps2), k2 ** ((eps2 - q2) / eps2))
        gamma = max(max(weights[1:]) * decay * tau * cand.gamma1, cand.gamma2)
    except OverflowError:
        raise ValueError(
            f"lifted constants overflow for kappa1={k1}, kappa2={k2}, tau={tau}"
        ) from None

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


def check_acbc_conditions(model: SHSModel, acbc: Acbc) -> CbcReport:
    """Check the lifted certificate's level and one-step decay conditions.

    Level conditions: alpha - beta(0) B on X0, and beta(z) B - eta on Xu
    for every counter value. The one-step expectation condition is checked
    semi-analytically per counter: the flow scenario uses the exponential
    relaxation bound E[B(x(tau-))] <= exp(-kappa1 tau)(B(x) + tau gamma1),
    the jump scenario the exact post-jump expectation polynomial; each is
    compared against kappa beta(z) B + gamma on X. The relaxation rests on
    the base flow condition LB <= -kappa1 B + gamma1, so that is checked on
    X as well ("flow[base]"). The conditions on the constants alone are the
    Acbc constructor's, so the report has no entry for them.
    """
    cand, jp, X = acbc.base, acbc.jump, model.X
    B, beta = cand.Bbar, acbc.weights
    counters = range(jp.q2 + 1)
    conditions = [
        ("initial", acbc.alpha - beta[0] * B, model.X0),
        *((f"unsafe[z={z}]", beta[z] * B - acbc.eta, model.Xu) for z in counters),
        ("flow[base]", flow_condition(cand, generator(model, B, cand.nu_flow)), X),
    ]
    decay = math.exp(-cand.kappa1 * jp.tau)
    jexp = jump_expectation(model, B, cand.nu_jump)
    for z in counters:
        level = acbc.kappa * beta[z] * B + acbc.gamma
        if jp.admits(FLOW, z):
            flowed = beta[z + 1] * decay * (B + jp.tau * cand.gamma1)
            conditions.append((f"flow[z={z}]", level - flowed, X))
        if jp.admits(JUMP, z):
            conditions.append((f"jump[z={z}]", level - beta[0] * jexp, X))
    return CbcReport(
        tuple(ConditionCheck.of(name, nonneg_on_box(expr, box)) for name, expr, box in conditions), X
    )
