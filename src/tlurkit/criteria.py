"""Discrete-variable separability criteria.

All evaluators return a ``CriterionReport`` whose margin is the amount of
violation (positive means entanglement detected):

* ``eval_lur``: joint variance sum against the sum of local bounds,
  sum_k Var(A_k (x) 1 + 1 (x) B_k) >= U_A + U_B for separable states.
* ``eval_tlur``: same left-hand side against U_A + U_B + M^2, where
  M = sqrt(sum Var(A_k)_rhoA - U_A) - sqrt(sum Var(B_k)_rhoB - U_B).
* ``eval_tlur_dual``: the matching upper bound with (sqrt + sqrt)^2;
  separable states cannot exceed it.
* ``eval_lemma1``: sqrt of the product of local excesses plus/minus the
  cross-covariance sum must be nonnegative for separable states.
* ``eval_nonlinear_witness`` / ``eval_corollary1``: the LOO witnesses, LUR
  and TLUR on an LOO pair A_k = G_k^A, B_k = -G_k^B (a set whose
  ``is_loo_pair`` holds).  A complete LOO side has sum_k Var(G_k) =
  d - Tr rho_X^2, so with U_X = d_X - 1 the witness is half the LUR excess
  lhs - U_A - U_B, and corollary 1, half the TLUR excess lhs - U_A - U_B -
  M^2, subtracts the purity-difference term M^2/2 and is never weaker.
* ``eval_ppt`` / ``eval_ccnr``: standard comparators.

Every set criterion is a closed form of one record, ``obs.moments(rho)``
(``observables.Moments``): per state, sum_k Var(A_k), sum_k Var(B_k), the
joint sum and sum_k Cov(A_k, B_k), read by the frame ``obs`` (a
``LocalObservableSet`` or a ``SchmidtFrame``) from the state's real LOO
coefficient matrix.  ``obs`` may also be that record, which is how
``scan.Plan.evaluate`` reads it once for all its criteria.

Every evaluator takes a ``DensityMatrix`` or a ``DensityStack`` of N states
and runs the same closed forms on either: the report holds the N results as
arrays, or the one state's as Python numbers.  A set criterion on a stack
takes one set (or frame) for all N states.

Local variance sums may round off slightly below a tight bound; deficits in
[-1e-9, 0) are clipped to zero before square roots, anything worse is a hard
error (the supplied bound cannot be a true bound).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidBoundError,
    ParameterRangeError,
    ValidationError,
    raise_first,
)
from .linops import min_eigenvalues, partial_transpose, realign, trace_norms
from .observables import Frame, LocalObservableSet, Moments, _nonzero
from .report import DETECTION_TOL, CriterionReport

__all__ = [
    "eval_lur", "eval_tlur", "eval_tlur_dual", "eval_lemma1",
    "eval_corollary1", "eval_nonlinear_witness", "eval_ppt", "eval_ccnr",
    "eval_measure", "entanglement_measures", "joint_variance_sum", "DETECTION_TOL",
]

_CLIP = 1e-9

Observables = Frame | Moments


def joint_variance_sum(rho, obs: Observables):
    """sum_k Var(A_k (x) 1 + 1 (x) B_k) on the joint state (per state of a
    stack): the lhs of ``eval_lur``."""
    return eval_lur(rho, obs).lhs


def eval_lur(rho, obs: Observables):
    """Original variance criterion: violation iff lhs < U_A + U_B."""
    m = obs.moments(rho)
    lhs = m.sums[..., 2]
    rhs = m.bound_a + m.bound_b
    return CriterionReport("lur", lhs, rhs, rhs - lhs,
                           {"variance_sum": lhs, "U_A": m.bound_a, "U_B": m.bound_b})


def _tlur_parts(m: Moments, bounds=None) -> dict:
    """Joint and local variance sums, the excesses of the local sums over
    ``bounds`` (U_A, U_B), by default the set's own, clipped at zero, and M;
    one entry per state."""
    u_a, u_b = bounds = bounds or (m.bound_a, m.bound_b)
    deficit = m.sums[..., :2] - bounds
    bad = deficit < -_CLIP
    if bad.any():
        bad, sums = bad.reshape(-1, 2), m.sums[..., :2].reshape(-1, 2)
        side = int(bad.any(axis=0).argmax())
        raise_first(bad[:, side], InvalidBoundError,
                    lambda k: f"side {'AB'[side]}: local variance sum {sums[k, side]} "
                              f"undercuts the declared bound {bounds[side]} beyond "
                              f"round-off; bound is not valid")
    excess = np.maximum(deficit, 0.0)
    roots = np.sqrt(excess)
    return {
        "variance_sum": m.sums[..., 2],
        "U_A": u_a,
        "U_B": u_b,
        "local_variance_sum_A": m.sums[..., 0],
        "local_variance_sum_B": m.sums[..., 1],
        "excess_A": excess[..., 0],
        "excess_B": excess[..., 1],
        "M": roots[..., 0] - roots[..., 1],
    }


def eval_tlur(rho, obs: Observables):
    """Tightened criterion: separable bound raised by M^2."""
    c = _tlur_parts(obs.moments(rho))
    rhs = c["U_A"] + c["U_B"] + c["M"] ** 2
    return CriterionReport("tlur", c["variance_sum"], rhs, rhs - c["variance_sum"], c)


def eval_tlur_dual(rho, obs: Observables):
    """Dual upper bound; violation iff lhs exceeds U_A + U_B + (sqrt+sqrt)^2."""
    c = _tlur_parts(obs.moments(rho))
    rhs = c["U_A"] + c["U_B"] + (np.sqrt(c["excess_A"]) + np.sqrt(c["excess_B"])) ** 2
    return CriterionReport("tlur_dual", c["variance_sum"], rhs, c["variance_sum"] - rhs, c)


def eval_lemma1(rho, obs: Observables):
    """sqrt(excess_A * excess_B) +/- cross-covariance sum >= 0, both signs."""
    m = obs.moments(rho)
    c = _tlur_parts(m)
    ea, eb, cov = c["excess_A"], c["excess_B"], m.sums[..., 3]
    root = np.sqrt(ea * eb)
    value_plus, value_minus = root + cov, root - cov
    lhs = np.minimum(value_plus, value_minus)
    components = {
        "sqrt_term": root, "covariance_sum": cov,
        "value_plus": value_plus, "value_minus": value_minus,
        "excess_A": ea, "excess_B": eb,
        "product_lhs": ea * eb, "product_rhs": cov * cov,
    }
    return CriterionReport("lemma1", lhs, 0.0, -lhs, components)


def _loo_parts(m: Moments, name: str) -> dict:
    """TLUR parts of an LOO pair against U_X = d_X - 1, the exact minimum of a
    complete LOO side (a declared side may carry a lower bound)."""
    if not m.is_loo_pair:
        raise ValidationError(f"criterion '{name}' needs complete LOO bases on both sides")
    return _tlur_parts(m, (m.dim_a - 1.0, m.dim_b - 1.0))


def eval_nonlinear_witness(rho, obs: Observables):
    """LOO witness 1 - sum_k <G_k^A (x) G_k^B> - sum_k (<G_k^A> - <G_k^B>)^2 / 2
    on an LOO pair A_k = G_k^A, B_k = -G_k^B: half the LUR excess
    lhs - U_A - U_B.  Separable => value >= 0."""
    c = _loo_parts(obs.moments(rho), "nonlinear_witness")
    value = (c["variance_sum"] - c["U_A"] - c["U_B"]) / 2
    return CriterionReport("nonlinear_witness", value, 0.0, -value, c)


def eval_corollary1(rho, obs: Observables):
    """Corollary 1: the LOO witness less the purity-difference term
    (sqrt(1 - Tr rho_A^2) - sqrt(1 - Tr rho_B^2))^2 / 2, i.e. half the TLUR
    excess lhs - U_A - U_B - M^2.  Separable => value >= 0; never weaker than
    ``eval_nonlinear_witness``."""
    c = _loo_parts(obs.moments(rho), "corollary1")
    value = (c["variance_sum"] - c["U_A"] - c["U_B"] - c["M"] ** 2) / 2
    return CriterionReport("corollary1", value, 0.0, -value, c)


def eval_ppt(rho):
    """Negative partial transpose test; margin is -min eigenvalue.  rho^{T_A}
    and rho^{T_B} have the same spectrum, so B is transposed."""
    lam = min_eigenvalues(partial_transpose(rho))
    return CriterionReport("ppt", lam, 0.0, -lam, {"min_eigenvalue": lam})


def eval_ccnr(rho):
    """Realignment test; separable states keep trace norm <= 1."""
    tn = trace_norms(realign(rho))
    return CriterionReport("ccnr", tn, 1.0, tn - 1.0, {"trace_norm": tn})


def eval_measure(rho, obs: Observables, which: str):
    """The estimate ``which`` ("c_lur" or "c_tlur") as a criterion whose
    margin is the estimate itself; its components hold both estimates."""
    c = _tlur_parts(obs.moments(rho))
    u_sum = c["U_A"] + c["U_B"]
    if u_sum <= 0.0:
        raise ParameterRangeError("measures need a positive bound sum U_A + U_B")
    c_lur = 1.0 - c["variance_sum"] / u_sum
    c_tlur = 1.0 - (c["variance_sum"] - c["M"] ** 2) / u_sum
    value = c_lur if which == "c_lur" else c_tlur
    return CriterionReport(which, value, 0.0, value, {"c_lur": c_lur, "c_tlur": c_tlur})


def entanglement_measures(rho, obs: Observables):
    """Violation-normalized estimates (C_LUR, C_TLUR), as floats (as arrays
    for a stack): the components of ``eval_measure``.

    C_LUR = 1 - lhs/(U_A+U_B) and C_TLUR = 1 - (lhs - M^2)/(U_A+U_B), so
    C_TLUR - C_LUR = M^2/(U_A+U_B) identically and both are positive exactly
    when the corresponding criterion detects.
    """
    c = eval_measure(rho, obs, "c_lur").components
    return c["c_lur"], c["c_tlur"]


def loo_bases_from_set(obs: Observables) -> tuple[np.ndarray, np.ndarray]:
    """The LOO bases (G^A, G^B) of an LOO pair A_k = G_k^A, B_k = -G_k^B, zero
    padding dropped.  Nothing in the package calls it; the benchmark's tracer
    (``perfbench/tracing.py``) looks it up by name."""
    if not (isinstance(obs, LocalObservableSet) and obs.is_loo_pair):
        raise ValidationError("the set holds no complete LOO bases as operators")
    return _nonzero(obs.stack_a), -_nonzero(obs.stack_b)
