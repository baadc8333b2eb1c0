"""Loader for the bundled nonlinear case study.

Three parameterizations of the same scalar system ship with the package,
each with its published degree-4 certificate, controllers, constants, and
the published rounded lifted constants. The rounded constants feed the
digit-exact reproduction path; everything else is recomputed from the raw
data. An entry is read by the codec as a ``CaseStudy``, with its key in
the bundle as ``case_id``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .certify import CbcCandidate
from .codec import Codec
from .model import JumpSchedule, SHSModel


@dataclass(frozen=True)
class CaseStudy(Codec):
    case_id: str
    model: SHSModel
    candidate: CbcCandidate
    eps1: float
    eps2: float
    horizon: int
    schedule: JumpSchedule
    reported: dict[str, float]

    @property
    def reported_alpha(self) -> float:
        return self.reported["beta_alpha"] * self.candidate.alphabar

    @property
    def reported_eta(self) -> float:
        return self.reported["beta_eta"] * self.candidate.etabar


def _raw() -> dict:
    path = resources.files("shscert").joinpath("data/case_study.json")
    return json.loads(path.read_text())


def list_cases() -> list[str]:
    return sorted(_raw()["cases"])


def load_case(case: int | str) -> CaseStudy:
    doc = _raw()["cases"]
    key = str(case)
    if key not in doc:
        raise ValueError(f"unknown case {case!r}; available: {sorted(doc)}")
    return CaseStudy.from_dict({"case_id": key, **doc[key]})
