"""Barrier-certificate safety toolkit for controlled jump-diffusion systems
with scheduled stochastic jumps: certificate checking (univariate
conditions by their float minimum at Sturm-isolated critical points,
which is not yet a proof, see ROADMAP.md item 1; multivariate ones by a
proved Bernstein enclosure), lifting to the counter-augmented system,
closed-form finite-horizon safety bounds, and seeded Monte Carlo
validation."""

import importlib

from .augment import Acbc, check_acbc_conditions, construct_acbc
from .bound import SafetyBound, compute_delta, compute_delta_for
from .cases import CaseStudy, list_cases, load_case
from .certify import (
    CbcCandidate,
    CbcReport,
    SosMultipliers,
    assemble_sos,
    check_cbc,
    generator,
    jump_expectation,
)
from .model import BlowUpError, JumpParams, JumpSchedule, SHSModel
from .poly import (
    IntervalBox,
    NoiseMoments,
    NonnegReport,
    Polynomial,
    min_on_interval,
    nonneg_on_box,
    sturm_root_count,
)

__version__ = "0.1.0"

# sim and synth import numpy, which costs more than the rest of start-up;
# their names are loaded on first use (PEP 562)
_LAZY = dict.fromkeys(
    ("McReport", "SimConfig", "Trajectory", "clopper_pearson", "flow_step", "jump_step",
     "monte_carlo", "simulate", "trajectory_csv"),
    "sim",
) | dict.fromkeys(("SynthResult", "SynthTemplate", "margin_objective", "search"), "synth")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Acbc",
    "BlowUpError",
    "CaseStudy",
    "CbcCandidate",
    "CbcReport",
    "IntervalBox",
    "JumpParams",
    "JumpSchedule",
    "McReport",
    "NoiseMoments",
    "NonnegReport",
    "Polynomial",
    "SHSModel",
    "SafetyBound",
    "SimConfig",
    "SosMultipliers",
    "SynthResult",
    "SynthTemplate",
    "Trajectory",
    "assemble_sos",
    "check_acbc_conditions",
    "check_cbc",
    "clopper_pearson",
    "compute_delta",
    "compute_delta_for",
    "construct_acbc",
    "flow_step",
    "generator",
    "jump_expectation",
    "jump_step",
    "list_cases",
    "load_case",
    "margin_objective",
    "min_on_interval",
    "monte_carlo",
    "nonneg_on_box",
    "search",
    "simulate",
    "sturm_root_count",
    "trajectory_csv",
]
