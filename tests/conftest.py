from __future__ import annotations

import numpy as np
import pytest

from shscert import (
    CbcCandidate,
    IntervalBox,
    JumpParams,
    NoiseMoments,
    Polynomial,
    SHSModel,
    load_case,
)
from shscert.model import NoiseConfig
from shscert.poly import SIGN_TOL

# acceptance criteria push their PASS/FAIL lines here; echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def allclose(p: Polynomial, q: Polynomial, tol: float = SIGN_TOL) -> bool:
    """Whether every coefficient of p and q differs by at most tol (a term
    missing on one side counts as 0.0)."""
    return all(abs(c) <= tol for c in (p - q).terms.values())


@pytest.fixture(scope="session")
def case1():
    return load_case(1)


@pytest.fixture(scope="session")
def case2():
    return load_case(2)


@pytest.fixture(scope="session")
def case3():
    return load_case(3)


def scalar_model(
    f1,
    f2,
    sigma=0.6,
    rho=0.5,
    rate=0.5,
    X=(0.0, 8.0),
    X0=(0.0, 1.5),
    Xu=(7.0, 8.0),
    tau=0.1,
    q1=1,
    q2=7,
) -> SHSModel:
    """One-dimensional model with constant diffusion/reset terms."""
    return SHSModel(
        state_vars=("x",),
        input_vars=("nu",),
        noise_vars=("varsigma",),
        f1=(f1,),
        sigma=((Polynomial.constant(sigma),),),
        rho=((Polynomial.constant(rho),),),
        rates=(rate,),
        f2=(f2,),
        noise=NoiseConfig((NoiseMoments.standard_normal(12),)),
        jump=JumpParams(tau, q1, q2),
        X=IntervalBox({"x": X}),
        X0=IntervalBox({"x": X0}),
        Xu=IntervalBox({"x": Xu}),
    )


def period_noise(model: SHSModel, rng: np.random.Generator, tau: float, substeps: int):
    """One period's noise for ``flow_step``: standard normal increments
    (substeps, b) and Poisson counts (substeps, r) of mean rate * tau / substeps."""
    h = tau / substeps
    return (
        rng.standard_normal((substeps, model.brownian_dim)),
        rng.poisson(np.asarray(model.rates) * h, (substeps, model.poisson_dim)),
    )


@pytest.fixture(scope="session")
def easy_model():
    """Strongly contracting system whose unsafe box is unreachable."""
    x = Polynomial.variable("x")
    nu = Polynomial.variable("nu")
    return scalar_model(
        f1=-1.0 * x + 0.0 * nu,
        f2=0.5 * x,
        sigma=0.0,
        rho=0.0,
        rate=0.0,
        X=(-2.0, 10.0),
        X0=(-0.5, 0.5),
        Xu=(8.0, 10.0),
    )


@pytest.fixture(scope="session")
def easy_candidate():
    x = Polynomial.variable("x")
    return CbcCandidate(
        Bbar=x**2,
        kappa1=1.0,
        kappa2=0.5,
        gamma1=0.5,
        gamma2=0.01,
        alphabar=0.3,
        etabar=60.0,
        nu_flow=(Polynomial.constant(0.0),),
        nu_jump=(Polynomial.constant(0.0),),
    )
