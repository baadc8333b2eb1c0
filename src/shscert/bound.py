"""Closed-form finite-horizon bound on the certificate-exceedance probability.

Given lifted-certificate constants (alpha, eta, kappa, gamma) the chance
that the certificate value ever reaches level eta within T transitions is
at most

    1 - (1 - alpha/eta) (1 - gamma/eta)^T        if eta >= gamma / (1 - kappa)
    (alpha/eta) kappa^T + gamma (1 - kappa^T) / ((1 - kappa) eta)   otherwise.

Both branches agree at T = 0 (alpha/eta). The raw value can exceed 1, in
which case the bound is vacuous; the report keeps the raw number and a
clamped one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codec import Codec

FIRST = "first"
SECOND = "second"


@dataclass(frozen=True)
class SafetyBound(Codec):
    """delta is clamped to [0, 1]; delta_raw keeps the unclamped value."""

    derived_keys = ("safety_probability",)

    delta: float
    delta_raw: float
    case: str
    horizon_T: int
    alpha: float
    eta: float
    kappa: float
    gamma: float

    @property
    def safety_probability(self) -> float:
        return 1.0 - self.delta


def compute_delta(
    alpha: float, eta: float, kappa: float, gamma: float, horizon: int
) -> SafetyBound:
    """Evaluate the exceedance bound for the given constants and horizon.

    Preconditions mirror the certificate definition: 0 < kappa < 1,
    eta > alpha >= 0, finite gamma >= 0, horizon >= 0. Ties
    eta = gamma/(1-kappa) route to the first branch.
    """
    if not 0 < kappa < 1:
        raise ValueError(f"0 < kappa < 1 violated (kappa={kappa})")
    if alpha < 0:
        raise ValueError(f"alpha >= 0 violated (alpha={alpha})")
    if not eta > alpha:
        raise ValueError(f"eta > alpha violated (eta={eta}, alpha={alpha})")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"0 <= gamma < inf violated (gamma={gamma})")
    return _delta(alpha, eta, kappa, gamma, horizon)


def compute_delta_for(acbc, horizon: int) -> SafetyBound:
    """Bound for a lifted certificate. Its constants are those the
    ``Acbc`` constructor derived from the base certificate and checked, so
    only the horizon is checked here."""
    return _delta(acbc.alpha, acbc.eta, acbc.kappa, acbc.gamma, horizon)


def _delta(alpha: float, eta: float, kappa: float, gamma: float, horizon: int) -> SafetyBound:
    if horizon < 0 or int(horizon) != horizon:
        raise ValueError(f"horizon must be a non-negative integer (got {horizon})")
    horizon = int(horizon)

    if eta >= gamma / (1.0 - kappa):
        case = FIRST
        raw = 1.0 - (1.0 - alpha / eta) * (1.0 - gamma / eta) ** horizon
    else:
        case = SECOND
        raw = (alpha / eta) * kappa**horizon + (
            gamma / ((1.0 - kappa) * eta)
        ) * (1.0 - kappa**horizon)
    return SafetyBound(
        delta=min(max(raw, 0.0), 1.0),
        delta_raw=raw,
        case=case,
        horizon_T=horizon,
        alpha=alpha,
        eta=eta,
        kappa=kappa,
        gamma=gamma,
    )
