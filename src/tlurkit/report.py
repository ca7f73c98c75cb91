"""Uniform result record for every separability criterion.

``margin`` is always the amount of violation, oriented so that a positive
margin means entanglement was detected; scanning code can therefore treat
all criteria alike.  Detection uses a uniform deadband of 1e-9 against
floating-point noise on exact inequalities.  A ``CriterionReport`` holds
one criterion's result on one state, as Python numbers, or on a stack of N
states, as arrays: the one state is the N = 1 case of the same record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DETECTION_TOL = 1e-9


@dataclass(frozen=True)
class CriterionReport:
    """One criterion on one state or on a stack of N states.

    On a stack, ``lhs``, ``rhs``, ``margin`` and each component are (N,)
    arrays, or scalars that hold for all N, and ``detected`` is the (N,)
    verdicts.  On one state (a margin of no dimensions) every value is
    converted once to a Python float, and ``detected`` is a Python bool.
    """

    criterion: str
    lhs: np.ndarray | float
    rhs: np.ndarray | float
    margin: np.ndarray | float
    detected: np.ndarray | bool = field(init=False)
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.ndim(self.margin) == 0:
            for name in ("lhs", "rhs", "margin"):
                object.__setattr__(self, name, float(getattr(self, name)))
            object.__setattr__(self, "components",
                               {k: float(v) for k, v in self.components.items()})
        object.__setattr__(self, "detected", self.margin > DETECTION_TOL)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "detected": self.detected,
            "components": dict(self.components),
        }

    def summaries(self) -> list[dict]:
        """lhs, rhs, margin and detected of each state, as plain floats and
        bools (one entry for one state)."""
        n = np.size(self.margin)
        lhs, rhs, margin, detected = (np.broadcast_to(v, (n,)).tolist() for v in
                                      (self.lhs, self.rhs, self.margin, self.detected))
        return [{"lhs": l, "rhs": r, "margin": m, "detected": d}
                for l, r, m, d in zip(lhs, rhs, margin, detected)]
