"""Discrete-variable separability criteria.

All evaluators return a ``CriterionReport`` whose margin is the amount of
violation (positive means entanglement detected).  Every set criterion is a
closed form of one record, ``obs.moments(rho)`` (``observables.Moments``):
per state, the local sums sum_k Var(A_k) and sum_k Var(B_k), the joint sum
sum_k Var(A_k (x) 1 + 1 (x) B_k) = U_A + U_B + e_A + e_B + 2c and
c = sum_k Cov(A_k, B_k), where e_X is the excess of side X's local sum over
its bound U_X.  The frame ``obs`` (a ``LocalObservableSet`` or a
``SchmidtFrame``) reads them from the state's real LOO coefficient matrix;
``obs`` may also be that record, which is how ``scan.Plan.evaluate`` reads
it once for all its criteria.  The margins:

* ``eval_lur``: the joint sum against U_A + U_B, -(e_A + e_B) - 2c.
* ``eval_tlur``: against U_A + U_B + M^2, M = sqrt(e_A) - sqrt(e_B),
  -2(sqrt(e_A e_B) + c).
* ``eval_tlur_dual``: the TLUR of (A, -B), an upper bound U_A + U_B +
  (sqrt(e_A) + sqrt(e_B))^2 that separable states cannot exceed,
  2(c - sqrt(e_A e_B)).
* ``eval_lemma1``: sqrt(e_A e_B) +/- c >= 0, half the larger of those two.
* ``eval_nonlinear_witness`` / ``eval_corollary1``: the LOO witnesses, half
  the LUR and the TLUR margin of an LOO pair A_k = G_k^A, B_k = -G_k^B (a
  set whose ``is_loo_pair`` holds) against U_X = d_X - 1, the minimum of
  sum_k Var(G_k) = d - Tr rho_X^2; corollary 1 is never weaker.
* ``eval_ppt`` / ``eval_ccnr``: standard comparators.

Weighting side B by t > 0 scales its bound by t^2, so LUR on (A, tB) has
margin -e_A - t^2 e_B - 2tc, at most t times the TLUR margin, with equality
at t* = sqrt(e_A / e_B): TLUR is LUR at its best relative weight of the two
sides, and detects whatever LUR detects at any weight.

Every evaluator takes a ``DensityMatrix`` or a ``DensityStack`` of N states
and runs the same closed forms on either: the report holds the N results as
arrays, or the one state's as Python numbers.  A set criterion on a stack
takes one set (or frame) for all N states.  The record refuses a local sum
more than 1e-9 below its side's bound; the criteria only compute, clipping
smaller deficits to zero before square roots.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterRangeError, ValidationError
from .linops import min_eigenvalues, partial_transpose, realign, trace_norms
from .observables import Frame, LocalObservableSet, Moments, _nonzero
from .report import DETECTION_TOL, CriterionReport

__all__ = [
    "eval_lur", "eval_tlur", "eval_tlur_dual", "eval_lemma1",
    "eval_corollary1", "eval_nonlinear_witness", "eval_ppt", "eval_ccnr",
    "eval_measure", "entanglement_measures", "joint_variance_sum", "DETECTION_TOL",
]

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


def _parts(rho, obs: Observables, loo: str = "") -> tuple[dict, np.ndarray]:
    """The components every tightened criterion reports (the sums, bounds,
    excesses clipped at 0 and M), then c, per state.  The bounds are the set's,
    or for the LOO witness named ``loo`` the exact d_X - 1 of a complete LOO
    side (a declared one may carry lower bounds)."""
    m = obs.moments(rho)
    if loo and not m.is_loo_pair:
        raise ValidationError(f"criterion '{loo}' needs complete LOO bases on both sides")
    u_a, u_b = bounds = (m.dim_a - 1.0, m.dim_b - 1.0) if loo else (m.bound_a, m.bound_b)
    excess = np.maximum(m.sums[..., :2] - bounds, 0.0)
    roots = np.sqrt(excess)
    return {"variance_sum": m.sums[..., 2], "U_A": u_a, "U_B": u_b,
            "local_variance_sum_A": m.sums[..., 0], "local_variance_sum_B": m.sums[..., 1],
            "excess_A": excess[..., 0], "excess_B": excess[..., 1],
            "M": roots[..., 0] - roots[..., 1]}, m.sums[..., 3]


def _tightened(name: str, rho, obs: Observables, s: int) -> CriterionReport:
    """The joint sum against U_A + U_B + (sqrt(e_A) - s sqrt(e_B))^2, a lower
    bound for s = 1 (TLUR) and an upper one for s = -1; margin s rhs - s lhs."""
    c, _ = _parts(rho, obs)
    lhs = c["variance_sum"]
    rhs = c["U_A"] + c["U_B"] + (np.sqrt(c["excess_A"]) - s * np.sqrt(c["excess_B"])) ** 2
    return CriterionReport(name, lhs, rhs, s * rhs - s * lhs, c)


def eval_tlur(rho, obs: Observables):
    """Tightened criterion: separable bound raised by M^2."""
    return _tightened("tlur", rho, obs, 1)


def eval_tlur_dual(rho, obs: Observables):
    """Dual upper bound; violation iff lhs exceeds U_A + U_B + (sqrt+sqrt)^2."""
    return _tightened("tlur_dual", rho, obs, -1)


def eval_lemma1(rho, obs: Observables):
    """sqrt(e_A e_B) + s c >= 0 for both signs s = +/-1."""
    c, cov = _parts(rho, obs)
    ea, eb = c["excess_A"], c["excess_B"]
    root = np.sqrt(ea * eb)
    value_plus, value_minus = (root + s * cov for s in (1, -1))
    lhs = np.minimum(value_plus, value_minus)
    components = {
        "sqrt_term": root, "covariance_sum": cov,
        "value_plus": value_plus, "value_minus": value_minus,
        "excess_A": ea, "excess_B": eb,
        "product_lhs": ea * eb, "product_rhs": cov * cov,
    }
    return CriterionReport("lemma1", lhs, 0.0, -lhs, components)


def _loo_witness(name: str, rho, obs: Observables, tight: int) -> CriterionReport:
    """Half the LUR (tight = 0) or TLUR (tight = 1) excess of an LOO pair,
    lhs - U_A - U_B - tight M^2: separable => value >= 0."""
    c, _ = _parts(rho, obs, name)
    value = (c["variance_sum"] - c["U_A"] - c["U_B"] - tight * c["M"] ** 2) / 2
    return CriterionReport(name, value, 0.0, -value, c)


def eval_nonlinear_witness(rho, obs: Observables):
    """LOO witness 1 - sum_k <G_k^A (x) G_k^B> - sum_k (<G_k^A> - <G_k^B>)^2 / 2."""
    return _loo_witness("nonlinear_witness", rho, obs, 0)


def eval_corollary1(rho, obs: Observables):
    """Corollary 1: the LOO witness less the purity-difference term
    (sqrt(1 - Tr rho_A^2) - sqrt(1 - Tr rho_B^2))^2 / 2."""
    return _loo_witness("corollary1", rho, obs, 1)


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
    c, _ = _parts(rho, obs)
    u_sum = c["U_A"] + c["U_B"]
    if u_sum <= 0.0:
        raise ParameterRangeError("measures need a positive bound sum U_A + U_B")
    measures = {"c_lur": 1.0 - c["variance_sum"] / u_sum,
                "c_tlur": 1.0 - (c["variance_sum"] - c["M"] ** 2) / u_sum}
    return CriterionReport(which, measures[which], 0.0, measures[which], measures)


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
