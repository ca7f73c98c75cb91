"""Uniform result record for every separability criterion.

``margin`` is always the amount of violation, oriented so that a positive
margin means entanglement was detected; scanning code can therefore treat
all criteria alike.  Detection uses a uniform deadband of 1e-9 against
floating-point noise on exact inequalities.  ``Verdicts`` holds one
criterion's results on a stack of N states as arrays; a ``CriterionReport``
is its one-state case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

DETECTION_TOL = 1e-9


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    lhs: float
    rhs: float
    margin: float
    detected: bool
    components: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.detected != (self.margin > DETECTION_TOL):
            raise ValidationError(
                f"inconsistent report: detected={self.detected} but margin={self.margin}")

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "detected": self.detected,
            "components": dict(self.components),
        }


def make_report(criterion: str, lhs: float, rhs: float, margin: float,
                components: dict | None = None) -> CriterionReport:
    return CriterionReport(criterion, float(lhs), float(rhs), float(margin),
                           bool(margin > DETECTION_TOL),
                           {k: float(v) for k, v in (components or {}).items()})


class Verdicts(NamedTuple):
    """One criterion on a stack of N states: ``lhs``, ``rhs``, ``margin`` and
    each component are (N,) arrays, or scalars that hold for all N."""

    criterion: str
    lhs: np.ndarray | float
    rhs: np.ndarray | float
    margin: np.ndarray
    components: dict

    @property
    def detected(self) -> np.ndarray:
        """The verdict of each state: ``margin > DETECTION_TOL``."""
        return self.margin > DETECTION_TOL

    def summaries(self) -> list[dict]:
        """lhs, rhs, margin and detected of each state, as plain floats and bools."""
        n = len(self.margin)
        lhs, rhs, margin, detected = (np.broadcast_to(v, (n,)).tolist() for v in
                                      (self.lhs, self.rhs, self.margin, self.detected))
        return [{"lhs": l, "rhs": r, "margin": m, "detected": d}
                for l, r, m, d in zip(lhs, rhs, margin, detected)]
