"""Discrete-variable separability criteria.

All evaluators return a ``CriterionReport`` (``Verdicts`` for a stack) whose
margin is the amount of violation (positive means entanglement detected):

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

Every set criterion reads one moment kernel, ``_moments``: from one reshape
of the states it returns the per-k moments <A_k>, <B_k>, <A_k^2>, <B_k^2>
and <A_k (x) B_k> of the operator stacks that observable sets carry.  Each
variance is clipped at zero before it is summed.

Every evaluator takes a ``DensityMatrix`` and returns its
``CriterionReport``, or a ``DensityStack`` of N states and returns
``Verdicts``, the N results as arrays; the one state is the N = 1 case of
the same computation.  A set criterion on a stack takes one set for all N
states or one set per state (``schmidt_loo_pair`` of the stack).

Local variance sums may round off slightly below a tight bound; deficits in
[-1e-9, 0) are clipped to zero before square roots, anything worse is a hard
error (the supplied bound cannot be a true bound).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidBoundError,
    ParameterRangeError,
    ValidationError,
    raise_first,
)
from .linops import DensityStack, min_eigenvalues, partial_transpose, realign, trace_norms
from .observables import LocalObservableSet, _nonzero
from .report import DETECTION_TOL, Verdicts, make_report

__all__ = [
    "eval_lur", "eval_tlur", "eval_tlur_dual", "eval_lemma1",
    "eval_corollary1", "eval_nonlinear_witness", "eval_ppt", "eval_ccnr",
    "eval_measure", "entanglement_measures", "joint_variance_sum", "DETECTION_TOL",
]

_CLIP = 1e-9


def _result(rho, criterion: str, lhs, rhs, margin, components: dict):
    """``Verdicts`` for a stack of states, the one ``CriterionReport`` else."""
    if isinstance(rho, DensityStack):
        return Verdicts(criterion, lhs, rhs, margin, components)
    return make_report(criterion, lhs, rhs, margin, components)


def _check_dims(rho, obs: LocalObservableSet):
    if (obs.dim_a, obs.dim_b) != (rho.dim_a, rho.dim_b):
        raise DimensionMismatchError(
            f"observables act on ({obs.dim_a},{obs.dim_b}) but state has "
            f"({rho.dim_a},{rho.dim_b})")
    if obs.stack_a.ndim == 4 and obs.stack_a.shape[:1] != rho.states.shape[:-2]:
        raise DimensionMismatchError(
            f"{len(obs.stack_a)} observable sets for states of shape {rho.states.shape}")


def _moments(rho, obs: LocalObservableSet):
    """Per-k moments of the set's operator stacks on each state of ``rho``.

    Returns ``first`` and ``second``, (..., 3, n): <X_k> and <X_k^2> for X_k
    = A_k, B_k and the joint A_k (x) 1 + 1 (x) B_k, whose square is
    A_k^2 (x) 1 + 1 (x) B_k^2 + 2 A_k (x) B_k; and ``cross``, (..., n):
    <A_k (x) B_k>.  The leading axes are those of ``rho.states``: none for
    one state, (N,) for a stack.  The set holds (n, d, d) stacks, or
    (N, n, d, d) stacks of one set per state.  With row-major vec,
    <A (x) B> = (vec A)^T R(rho^T) vec B for any A and B, R the realignment
    (a permutation of the entries of rho).  The set's rows (vec A_k,
    vec A_k^2, then vec 1) give X = rows_A R(rho^T): its rows with vec 1
    give the A side, its last row (1^T R(rho^T)) with rows_B the B side,
    and its first n rows with those of rows_B the cross moments.
    """
    _check_dims(rho, obs)
    da, db = rho.dim_a, rho.dim_b
    n = obs.n
    m = rho.states
    lead = m.shape[:-2]
    realigned_t = m.swapaxes(-1, -2).reshape(lead + (da, db, da, db)).swapaxes(-3, -2).reshape(
        lead + (da * da, db * db))
    x = obs.rows_a @ realigned_t  # (..., 2n+1, d_B^2)
    cross = np.einsum("...kp,...kp->...k", x[..., :n, :], obs.rows_b[..., :n, :]).real
    out = np.empty(x.shape[:-2] + (3, 2 * n))
    out[..., 0, :] = (x @ obs.rows_b[..., -1, :, None])[..., :-1, 0].real
    out[..., 1, :] = (obs.rows_b @ x[..., -1, :, None])[..., :-1, 0].real
    np.add(out[..., 0, :], out[..., 1, :], out=out[..., 2, :])
    out[..., 2, n:] += 2.0 * cross
    return out[..., :n], out[..., n:], cross


def _variance_sums(first, second) -> np.ndarray:
    """(..., 3): sum_k Var(A_k), sum_k Var(B_k) and the joint sum, each
    variance clipped to zero against round-off."""
    return np.maximum(second - first * first, 0.0).sum(axis=-1)


def joint_variance_sum(rho, obs: LocalObservableSet):
    """sum_k Var(A_k (x) 1 + 1 (x) B_k) on the joint state (per state of a
    stack)."""
    lhs = _variance_sums(*_moments(rho, obs)[:2])[..., 2]
    return lhs if isinstance(rho, DensityStack) else float(lhs)


def _excesses(local_sums: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """(..., 2): the local sums less the bounds (U_A, U_B), clipped at zero."""
    deficit = local_sums - bounds
    bad = deficit < -_CLIP
    if bad.any():
        bad, sums = bad.reshape(-1, 2), local_sums.reshape(-1, 2)
        side = int(bad.any(axis=0).argmax())
        raise_first(bad[:, side], InvalidBoundError,
                    lambda k: f"side {'AB'[side]}: local variance sum {sums[k, side]} "
                              f"undercuts the declared bound {bounds[side]} beyond "
                              f"round-off; bound is not valid")
    return np.maximum(deficit, 0.0)


def eval_lur(rho, obs: LocalObservableSet):
    """Original variance criterion: violation iff lhs < U_A + U_B."""
    lhs = _variance_sums(*_moments(rho, obs)[:2])[..., 2]
    rhs = obs.bound_a + obs.bound_b
    return _result(rho, "lur", lhs, rhs, rhs - lhs,
                   {"variance_sum": lhs, "U_A": obs.bound_a, "U_B": obs.bound_b})


def _tlur_parts(rho, obs: LocalObservableSet, bounds=None) -> dict:
    """Joint and local variance sums, excesses and M against ``bounds``
    (U_A, U_B), by default the set's own; one entry per state."""
    u_a, u_b = bounds or (obs.bound_a, obs.bound_b)
    sums = _variance_sums(*_moments(rho, obs)[:2])
    excess = _excesses(sums[..., :2], (u_a, u_b))
    roots = np.sqrt(excess)
    return {
        "variance_sum": sums[..., 2],
        "U_A": u_a,
        "U_B": u_b,
        "local_variance_sum_A": sums[..., 0],
        "local_variance_sum_B": sums[..., 1],
        "excess_A": excess[..., 0],
        "excess_B": excess[..., 1],
        "M": roots[..., 0] - roots[..., 1],
    }


def eval_tlur(rho, obs: LocalObservableSet):
    """Tightened criterion: separable bound raised by M^2."""
    c = _tlur_parts(rho, obs)
    rhs = c["U_A"] + c["U_B"] + c["M"] ** 2
    return _result(rho, "tlur", c["variance_sum"], rhs, rhs - c["variance_sum"], c)


def eval_tlur_dual(rho, obs: LocalObservableSet):
    """Dual upper bound; violation iff lhs exceeds U_A + U_B + (sqrt+sqrt)^2."""
    c = _tlur_parts(rho, obs)
    rhs = c["U_A"] + c["U_B"] + (np.sqrt(c["excess_A"]) + np.sqrt(c["excess_B"])) ** 2
    return _result(rho, "tlur_dual", c["variance_sum"], rhs, c["variance_sum"] - rhs, c)


def eval_lemma1(rho, obs: LocalObservableSet):
    """sqrt(excess_A * excess_B) +/- cross-covariance sum >= 0, both signs."""
    first, second, cross = _moments(rho, obs)
    excess = _excesses(_variance_sums(first, second)[..., :2], (obs.bound_a, obs.bound_b))
    ea, eb = excess[..., 0], excess[..., 1]
    cov = (cross - first[..., 0, :] * first[..., 1, :]).sum(axis=-1)
    root = np.sqrt(ea * eb)
    value_plus, value_minus = root + cov, root - cov
    lhs = np.minimum(value_plus, value_minus)
    components = {
        "sqrt_term": root, "covariance_sum": cov,
        "value_plus": value_plus, "value_minus": value_minus,
        "excess_A": ea, "excess_B": eb,
        "product_lhs": ea * eb, "product_rhs": cov * cov,
    }
    return _result(rho, "lemma1", lhs, 0.0, -lhs, components)


def _loo_parts(rho, obs: LocalObservableSet, name: str) -> dict:
    """TLUR parts of an LOO pair against U_X = d_X - 1, the exact minimum of a
    complete LOO side (a declared side may carry a lower bound)."""
    if not obs.is_loo_pair:
        raise ValidationError(f"criterion '{name}' needs complete LOO bases on both sides")
    return _tlur_parts(rho, obs, (obs.dim_a - 1.0, obs.dim_b - 1.0))


def eval_nonlinear_witness(rho, obs: LocalObservableSet):
    """LOO witness 1 - sum_k <G_k^A (x) G_k^B> - sum_k (<G_k^A> - <G_k^B>)^2 / 2
    on an LOO pair A_k = G_k^A, B_k = -G_k^B: half the LUR excess
    lhs - U_A - U_B.  Separable => value >= 0."""
    c = _loo_parts(rho, obs, "nonlinear_witness")
    value = (c["variance_sum"] - c["U_A"] - c["U_B"]) / 2
    return _result(rho, "nonlinear_witness", value, 0.0, -value, c)


def eval_corollary1(rho, obs: LocalObservableSet):
    """Corollary 1: the LOO witness less the purity-difference term
    (sqrt(1 - Tr rho_A^2) - sqrt(1 - Tr rho_B^2))^2 / 2, i.e. half the TLUR
    excess lhs - U_A - U_B - M^2.  Separable => value >= 0; never weaker than
    ``eval_nonlinear_witness``."""
    c = _loo_parts(rho, obs, "corollary1")
    value = (c["variance_sum"] - c["U_A"] - c["U_B"] - c["M"] ** 2) / 2
    return _result(rho, "corollary1", value, 0.0, -value, c)


def eval_ppt(rho):
    """Negative partial transpose test; margin is -min eigenvalue.  rho^{T_A}
    and rho^{T_B} have the same spectrum, so B is transposed."""
    lam = min_eigenvalues(partial_transpose(rho))
    return _result(rho, "ppt", lam, 0.0, -lam, {"min_eigenvalue": lam})


def eval_ccnr(rho):
    """Realignment test; separable states keep trace norm <= 1."""
    tn = trace_norms(realign(rho))
    return _result(rho, "ccnr", tn, 1.0, tn - 1.0, {"trace_norm": tn})


def _measures(rho, obs: LocalObservableSet) -> tuple[np.ndarray, np.ndarray]:
    c = _tlur_parts(rho, obs)
    u_sum = c["U_A"] + c["U_B"]
    if u_sum <= 0.0:
        raise ParameterRangeError("measures need a positive bound sum U_A + U_B")
    c_lur = 1.0 - c["variance_sum"] / u_sum
    c_tlur = 1.0 - (c["variance_sum"] - c["M"] ** 2) / u_sum
    return c_lur, c_tlur


def entanglement_measures(rho, obs: LocalObservableSet):
    """Violation-normalized estimates (C_LUR, C_TLUR), as floats (as arrays
    for a stack).

    C_LUR = 1 - lhs/(U_A+U_B) and C_TLUR = 1 - (lhs - M^2)/(U_A+U_B), so
    C_TLUR - C_LUR = M^2/(U_A+U_B) identically and both are positive exactly
    when the corresponding criterion detects.
    """
    c_lur, c_tlur = _measures(rho, obs)
    if isinstance(rho, DensityStack):
        return c_lur, c_tlur
    return float(c_lur), float(c_tlur)


def eval_measure(rho, obs: LocalObservableSet, which: str):
    """The estimate ``which`` ("c_lur" or "c_tlur") as a criterion whose
    margin is the estimate itself."""
    c_lur, c_tlur = _measures(rho, obs)
    value = c_lur if which == "c_lur" else c_tlur
    return _result(rho, which, value, 0.0, value, {"c_lur": c_lur, "c_tlur": c_tlur})


def loo_bases_from_set(obs: LocalObservableSet) -> tuple[np.ndarray, np.ndarray]:
    """The LOO bases (G^A, G^B) of an LOO pair A_k = G_k^A, B_k = -G_k^B, zero
    padding dropped.  Nothing in the package calls it; the benchmark's tracer
    (``perfbench/tracing.py``) looks it up by name."""
    if not obs.is_loo_pair:
        raise ValidationError("the set is not built from complete LOO bases")
    return _nonzero(obs.stack_a), -_nonzero(obs.stack_b)
