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
* ``eval_corollary1`` / ``eval_nonlinear_witness``: LOO-basis witnesses;
  corollary1 subtracts a purity-difference term and is never weaker.
* ``eval_ppt`` / ``eval_ccnr``: standard comparators.

Every variance criterion and both LOO witnesses read one moment kernel,
``_moments``: from one reshape of the state it returns the per-k vectors
<A_k>, <B_k>, <A_k^2>, <B_k^2> and <A_k (x) B_k> of the operator stacks
that observable sets and LOO bases carry.  Each variance is clipped at zero
before it is summed.

Local variance sums may round off slightly below a tight bound; deficits in
[-1e-9, 0) are clipped to zero before square roots, anything worse is a hard
error (the supplied bound cannot be a true bound).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidBoundError, ParameterRangeError
from .linops import (
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    purity,
    realign,
    trace_norm,
)
from .observables import LocalObservableSet, LooBasis, _nonzero, _zero_pad
from .report import DETECTION_TOL, CriterionReport, make_report

__all__ = [
    "eval_lur", "eval_tlur", "eval_tlur_dual", "eval_lemma1",
    "eval_corollary1", "eval_nonlinear_witness", "eval_ppt", "eval_ccnr",
    "entanglement_measures", "joint_variance_sum", "loo_bases_from_set",
    "DETECTION_TOL",
]

_CLIP = 1e-9


def _check_dims(rho, obs: LocalObservableSet):
    if (obs.dim_a, obs.dim_b) != (rho.dim_a, rho.dim_b):
        raise DimensionMismatchError(
            f"observables act on ({obs.dim_a},{obs.dim_b}) but state has "
            f"({rho.dim_a},{rho.dim_b})")


def _moments(rho, a, b, a2, b2):
    """Per-k moments of stacked local operators on ``rho``.

    ``a`` (n, d_A, d_A) and ``b`` (n, d_B, d_B) are Hermitian stacks,
    zero-padded to a common n, and ``a2``/``b2`` their squares.  Returns the
    vectors <A_k>, <B_k>, <A_k^2>, <B_k^2> and <A_k (x) B_k>.  With row-major
    vec and vec(A^T) = conj(vec(A)) for Hermitian A, Tr(rho_A A) =
    conj(vec A) . vec(rho_A) and <A (x) B> = conj(vec A)^T R(rho) conj(vec B),
    R the realigned state.
    """
    da, db = rho.dim_a, rho.dim_b
    n = len(a)
    t = np.asarray(rho.matrix).reshape(da, db, da, db)
    ra = np.einsum("ikjk->ij", t).ravel()
    rb = np.einsum("kikj->ij", t).ravel()
    realigned = t.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    va, vb = a.reshape(n, -1).conj(), b.reshape(n, -1).conj()
    return ((va @ ra).real, (vb @ rb).real,
            (a2.reshape(n, -1).conj() @ ra).real, (b2.reshape(n, -1).conj() @ rb).real,
            ((va @ realigned) * vb).sum(axis=1).real)


def _set_moments(rho, obs: LocalObservableSet):
    _check_dims(rho, obs)
    return _moments(rho, obs.stack_a, obs.stack_b, obs.sq_a, obs.sq_b)


def _variance_sum(mean, second) -> float:
    """sum_k Var_k, each variance clipped to zero against round-off."""
    return float(np.maximum(second - mean * mean, 0.0).sum())


def _joint_sum(ma, mb, qa, qb, ab) -> float:
    """sum_k Var(A_k (x) 1 + 1 (x) B_k); (A (x) 1 + 1 (x) B)^2 = A^2 (x) 1 +
    1 (x) B^2 + 2 A (x) B."""
    return _variance_sum(ma + mb, qa + qb + 2.0 * ab)


def joint_variance_sum(rho, obs: LocalObservableSet) -> float:
    """sum_k Var(A_k (x) 1 + 1 (x) B_k) on the joint state."""
    return _joint_sum(*_set_moments(rho, obs))


def _excess(local_sum: float, bound: float, side: str) -> float:
    deficit = local_sum - bound
    if deficit < -_CLIP:
        raise InvalidBoundError(
            f"side {side}: local variance sum {local_sum} undercuts the declared "
            f"bound {bound} beyond round-off; bound is not valid")
    return max(deficit, 0.0)


def eval_lur(rho, obs: LocalObservableSet) -> CriterionReport:
    """Original variance criterion: violation iff lhs < U_A + U_B."""
    lhs = joint_variance_sum(rho, obs)
    rhs = obs.bound_a + obs.bound_b
    return make_report("lur", lhs, rhs, rhs - lhs,
                       {"variance_sum": lhs, "U_A": obs.bound_a, "U_B": obs.bound_b})


def _tlur_parts(rho, obs: LocalObservableSet) -> dict:
    ma, mb, qa, qb, ab = _set_moments(rho, obs)
    lhs = _joint_sum(ma, mb, qa, qb, ab)
    sum_a, sum_b = _variance_sum(ma, qa), _variance_sum(mb, qb)
    ea = _excess(sum_a, obs.bound_a, "A")
    eb = _excess(sum_b, obs.bound_b, "B")
    return {
        "variance_sum": lhs,
        "U_A": obs.bound_a,
        "U_B": obs.bound_b,
        "local_variance_sum_A": sum_a,
        "local_variance_sum_B": sum_b,
        "excess_A": ea,
        "excess_B": eb,
        "M": np.sqrt(ea) - np.sqrt(eb),
    }


def eval_tlur(rho, obs: LocalObservableSet) -> CriterionReport:
    """Tightened criterion: separable bound raised by M^2."""
    c = _tlur_parts(rho, obs)
    rhs = c["U_A"] + c["U_B"] + c["M"] ** 2
    return make_report("tlur", c["variance_sum"], rhs, rhs - c["variance_sum"], c)


def eval_tlur_dual(rho, obs: LocalObservableSet) -> CriterionReport:
    """Dual upper bound; violation iff lhs exceeds U_A + U_B + (sqrt+sqrt)^2."""
    c = _tlur_parts(rho, obs)
    rhs = c["U_A"] + c["U_B"] + (np.sqrt(c["excess_A"]) + np.sqrt(c["excess_B"])) ** 2
    return make_report("tlur_dual", c["variance_sum"], rhs, c["variance_sum"] - rhs, c)


def eval_lemma1(rho, obs: LocalObservableSet) -> CriterionReport:
    """sqrt(excess_A * excess_B) +/- cross-covariance sum >= 0, both signs."""
    ma, mb, qa, qb, ab = _set_moments(rho, obs)
    ea = _excess(_variance_sum(ma, qa), obs.bound_a, "A")
    eb = _excess(_variance_sum(mb, qb), obs.bound_b, "B")
    cov = float((ab - ma * mb).sum())
    root = np.sqrt(ea * eb)
    value_plus, value_minus = root + cov, root - cov
    lhs = min(value_plus, value_minus)
    components = {
        "sqrt_term": root, "covariance_sum": cov,
        "value_plus": value_plus, "value_minus": value_minus,
        "excess_A": ea, "excess_B": eb,
        "product_lhs": ea * eb, "product_rhs": cov * cov,
    }
    return make_report("lemma1", lhs, 0.0, -lhs, components)


def _as_loo(basis) -> LooBasis:
    return basis if isinstance(basis, LooBasis) else LooBasis(basis)


def _loo_witness_parts(rho, loo_a, loo_b) -> dict:
    loo_a, loo_b = _as_loo(loo_a), _as_loo(loo_b)
    if (loo_a.dim, loo_b.dim) != (rho.dim_a, rho.dim_b):
        raise DimensionMismatchError(
            f"LOO bases act on ({loo_a.dim},{loo_b.dim}) but state has "
            f"({rho.dim_a},{rho.dim_b})")
    n = max(len(loo_a.stack), len(loo_b.stack))
    mean_a, mean_b, _, _, corr = _moments(
        rho, _zero_pad(loo_a.stack, n), _zero_pad(loo_b.stack, n),
        _zero_pad(loo_a.sq, n), _zero_pad(loo_b.sq, n))
    cross = float(corr.sum())
    mean_diff_sq = float(((mean_a - mean_b) ** 2).sum())
    pa, pb = purity(partial_trace(rho, "B")), purity(partial_trace(rho, "A"))
    purity_term = 0.5 * (np.sqrt(max(1.0 - pa, 0.0)) - np.sqrt(max(1.0 - pb, 0.0))) ** 2
    witness = 1.0 - cross - 0.5 * mean_diff_sq
    return {
        "cross_sum": cross, "mean_diff_sq_sum": mean_diff_sq,
        "purity_A": pa, "purity_B": pb, "purity_term": purity_term,
        "witness_value": witness, "corollary1_value": witness - purity_term,
    }


def eval_corollary1(rho, loo_a, loo_b) -> CriterionReport:
    """LOO witness tightened by the purity-difference term; separable => value >= 0."""
    c = _loo_witness_parts(rho, loo_a, loo_b)
    value = c["corollary1_value"]
    return make_report("corollary1", value, 0.0, -value, c)


def eval_nonlinear_witness(rho, loo_a, loo_b) -> CriterionReport:
    """The same witness without the purity term (the weaker comparator)."""
    c = _loo_witness_parts(rho, loo_a, loo_b)
    value = c["witness_value"]
    return make_report("nonlinear_witness", value, 0.0, -value, c)


def eval_ppt(rho, transposed: str = "B") -> CriterionReport:
    """Negative partial transpose test; margin is -min eigenvalue."""
    lam = min_eigenvalue(partial_transpose(rho, transposed))
    return make_report("ppt", lam, 0.0, -lam, {"min_eigenvalue": lam})


def eval_ccnr(rho) -> CriterionReport:
    """Realignment test; separable states keep trace norm <= 1."""
    tn = trace_norm(realign(rho))
    return make_report("ccnr", tn, 1.0, tn - 1.0, {"trace_norm": tn})


def entanglement_measures(rho, obs: LocalObservableSet) -> tuple[float, float]:
    """Violation-normalized estimates (C_LUR, C_TLUR).

    C_LUR = 1 - lhs/(U_A+U_B) and C_TLUR = 1 - (lhs - M^2)/(U_A+U_B), so
    C_TLUR - C_LUR = M^2/(U_A+U_B) identically and both are positive exactly
    when the corresponding criterion detects.
    """
    c = _tlur_parts(rho, obs)
    u_sum = c["U_A"] + c["U_B"]
    if u_sum <= 0.0:
        raise ParameterRangeError("measures need a positive bound sum U_A + U_B")
    c_lur = 1.0 - c["variance_sum"] / u_sum
    c_tlur = 1.0 - (c["variance_sum"] - c["M"] ** 2) / u_sum
    return c_lur, c_tlur


def loo_bases_from_set(obs: LocalObservableSet) -> tuple[LooBasis, LooBasis]:
    """Reinterpret a set built as A_k = G_k^A, B_k = -G_k^B as its LOO bases.

    Zero padding is dropped; orthonormality is validated, so sets that were
    not built from complete LOO bases are rejected.
    """
    return LooBasis(_nonzero(obs.stack_a)), LooBasis(-_nonzero(obs.stack_b))
