"""Barrier-certificate safety toolkit for controlled jump-diffusion systems
with scheduled stochastic jumps: exact univariate certificate checking,
lifting to the counter-augmented system, closed-form finite-horizon safety
bounds, and seeded Monte Carlo validation."""

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
from .model import JumpParams, JumpSchedule, SHSModel
from .poly import (
    IntervalBox,
    NoiseMoments,
    NonnegReport,
    Polynomial,
    min_on_interval,
    nonneg_on_box,
    sturm_root_count,
)
from .sim import (
    BlowUpError,
    McReport,
    SimConfig,
    Trajectory,
    clopper_pearson,
    flow_step,
    jump_step,
    monte_carlo,
    simulate,
    trajectory_csv,
)
from .synth import SynthResult, SynthTemplate, margin_objective, search

__version__ = "0.1.0"

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
