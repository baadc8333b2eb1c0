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
from dataclasses import dataclass, field

from .certify import CbcCandidate, CbcReport, _report, flow_condition, generator, jump_expectation
from .codec import Codec
from .model import FLOW, JUMP, JumpParams, SHSModel

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
    """Lifted certificate of a base candidate for the jump parameters and
    the slack constants 0 < eps1 < 1 and eps2 > q2.

    The constructor derives the rest: the regime of the base's (kappa1,
    kappa2), the counter weights beta(0), ..., beta(q2) (``weights``),
    beta_alpha and beta_eta (the larger and smaller of beta(q1) and
    beta(q2)), alpha = beta_alpha alphabar, eta = beta_eta etabar, the flow
    period's decay factor exp(-kappa1 tau) (``decay``), kappa and gamma,
    whose flow factor is the largest of beta(1..q2). It raises
    ``ValueError`` at the first condition the result breaks: an unsupported
    regime, an overflow, a non-finite constant, the separation eta > alpha,
    the per-counter decay condition ln(kappa2) - kappa1 tau z < 0 for z in
    q1..q2, or 0 < kappa < 1.
    """

    derived_keys = ("regime", "alpha", "eta", "kappa", "gamma", "beta_alpha", "beta_eta")

    base: CbcCandidate
    jump: JumpParams
    eps1: float
    eps2: float
    regime: str = field(init=False)
    weights: tuple[float, ...] = field(init=False)
    alpha: float = field(init=False)
    eta: float = field(init=False)
    kappa: float = field(init=False)
    gamma: float = field(init=False)
    beta_alpha: float = field(init=False)
    beta_eta: float = field(init=False)
    decay: float = field(init=False)

    def __post_init__(self):
        cand, jp, eps1, eps2 = self.base, self.jump, self.eps1, self.eps2
        k1, k2, tau, q1, q2 = cand.kappa1, cand.kappa2, jp.tau, jp.q1, jp.q2
        if not 0 < eps1 < 1:
            raise ValueError(f"eps1 must be in (0, 1), got {eps1}")
        if not q2 < eps2 < math.inf:
            raise ValueError(f"eps2 must be finite and exceed q2={q2}, got {eps2}")
        regime = _regime(k1, k2)
        try:
            decay = math.exp(-k1 * tau)
            if regime == R1:
                weights = (1.0,) * (q2 + 1)
                kappa = max(decay, k2)
            elif regime == R2:
                weights = tuple(math.exp(k1 * tau * eps1 * z) for z in range(q2 + 1))
                kappa = max(math.exp(-k1 * tau * (1 - eps1)), math.exp(-k1 * tau * eps1 * q1) * k2)
            else:
                weights = tuple(k2 ** (z / eps2) for z in range(q2 + 1))
                kappa = max(decay * k2 ** (1 / eps2), k2 ** ((eps2 - q2) / eps2))
            beta_eta, beta_alpha = sorted((weights[q1], weights[q2]))
            gamma = max(max(weights[1:]) * decay * tau * cand.gamma1, cand.gamma2)
        except OverflowError:
            raise ValueError(
                f"lifted constants overflow for kappa1={k1}, kappa2={k2}, tau={tau}"
            ) from None
        alpha, eta = beta_alpha * cand.alphabar, beta_eta * cand.etabar
        for name, value in (("alpha", alpha), ("eta", eta), ("kappa", kappa), ("gamma", gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not eta > alpha:
            raise ValueError(
                "separation condition violated: "
                f"beta_eta*etabar = {eta:.6g} must exceed beta_alpha*alphabar = {alpha:.6g}"
            )
        for z in range(q1, q2 + 1):
            if not math.log(k2) - k1 * tau * z < 0:
                raise ValueError(
                    f"per-counter decay condition violated at z={z}: "
                    f"ln(kappa2) - kappa1*tau*z = {math.log(k2) - k1 * tau * z:.6g}"
                )
        if not 0 < kappa < 1:
            raise ValueError(f"lifted decay rate kappa={kappa:.6g} outside (0, 1)")
        vars(self).update(
            regime=regime, weights=weights, alpha=alpha, eta=eta, kappa=kappa, gamma=gamma,
            beta_alpha=beta_alpha, beta_eta=beta_eta, decay=decay,
        )


def construct_acbc(
    cand: CbcCandidate,
    jump: JumpParams,
    eps1: float = 0.1,
    eps2: float | None = None,
) -> Acbc:
    """The lifted certificate of ``cand`` (see ``Acbc``); eps2 defaults to
    q2 + 1."""
    return Acbc(cand, jump, eps1, float(jump.q2 + 1) if eps2 is None else eps2)


def check_acbc_conditions(model: SHSModel, acbc: Acbc) -> CbcReport:
    """Check the lifted certificate's level and one-step decay conditions.

    Level conditions: alpha - beta(0) B on X0, and beta(z) B - eta on Xu
    for every counter value. The one-step expectation condition is checked
    semi-analytically per counter: the flow scenario uses the exponential
    relaxation bound E[B(x(tau-))] <= decay (B(x) + tau gamma1), with
    decay = exp(-kappa1 tau) (``Acbc.decay``),
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
    jexp = jump_expectation(model, B, cand.nu_jump)
    for z in counters:
        level = acbc.kappa * beta[z] * B + acbc.gamma
        if jp.admits(FLOW, z):
            flowed = beta[z + 1] * acbc.decay * (B + jp.tau * cand.gamma1)
            conditions.append((f"flow[z={z}]", level - flowed, X))
        if jp.admits(JUMP, z):
            conditions.append((f"jump[z={z}]", level - beta[0] * jexp, X))
    return _report(conditions, X)
