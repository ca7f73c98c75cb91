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

Every set criterion reads three sums per state, sum_k Var(A_k),
sum_k Var(B_k) and sum_k Cov(A_k, B_k), from one function of the state's
real LOO coefficient matrix C (``observables.loo_coefficients``) and the
set: its coordinate rows, or the SVD of C for a ``SchmidtFrame``.  Inside a
``shared_moments()`` block (``scan.Plan.evaluate`` opens one per call) C and
the sums are computed once per pair of states and set.

Every evaluator takes a ``DensityMatrix`` and returns its
``CriterionReport``, or a ``DensityStack`` of N states and returns
``Verdicts``, the N results as arrays; the one state is the N = 1 case of
the same computation.  A set criterion on a stack takes one set (or frame)
for all N states.

Local variance sums may round off slightly below a tight bound; deficits in
[-1e-9, 0) are clipped to zero before square roots, anything worse is a hard
error (the supplied bound cannot be a true bound).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidBoundError,
    ParameterRangeError,
    ValidationError,
    raise_first,
)
from .linops import DensityStack, min_eigenvalues, partial_transpose, realign, trace_norms
from .observables import LocalObservableSet, SchmidtFrame, _nonzero, loo_coefficients
from .report import DETECTION_TOL, Verdicts, make_report

__all__ = [
    "eval_lur", "eval_tlur", "eval_tlur_dual", "eval_lemma1",
    "eval_corollary1", "eval_nonlinear_witness", "eval_ppt", "eval_ccnr",
    "eval_measure", "entanglement_measures", "joint_variance_sum", "DETECTION_TOL",
]

_CLIP = 1e-9

Observables = LocalObservableSet | SchmidtFrame


def _result(rho, criterion: str, lhs, rhs, margin, components: dict):
    """``Verdicts`` for a stack of states, the one ``CriterionReport`` else."""
    if isinstance(rho, DensityStack):
        return Verdicts(criterion, lhs, rhs, margin, components)
    return make_report(criterion, lhs, rhs, margin, components)


# (id(rho), id(obs)) -> (rho, obs, sums) inside a ``shared_moments`` block;
# a context variable, so threads and nested blocks each see their own
_SHARED: ContextVar[dict | None] = ContextVar("shared_moments", default=None)


@contextmanager
def shared_moments():
    """Within the block, ``_sums`` builds C and the variance sums once per
    pair of states and set: the criteria evaluated on the same ``rho`` and
    ``obs`` read the same read-only sums.  Nothing is kept once the block
    exits."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _sums(rho, obs: Observables) -> np.ndarray:
    """``_variance_sums`` of ``rho``'s LOO coefficient matrix and ``obs``,
    computed once per block of ``shared_moments`` and pair (``rho``, ``obs``)."""
    shared = _SHARED.get()
    key = (id(rho), id(obs))
    if shared is None or key not in shared:
        if (obs.dim_a, obs.dim_b) != rho.dims:
            raise DimensionMismatchError(
                f"observables act on ({obs.dim_a},{obs.dim_b}) but state has "
                f"({rho.dim_a},{rho.dim_b})")
        sums = _variance_sums(loo_coefficients(rho), obs)
        if shared is None:
            return sums
        shared[key] = (rho, obs, sums)  # held with the sums, rho and obs keep their ids
    return shared[key][2]


def _variance_sums(coeff: np.ndarray, obs: Observables) -> np.ndarray:
    """(..., 4), read-only: sum_k Var(A_k), sum_k Var(B_k), the joint sum
    local A + local B + 2 cov, and sum_k Cov(A_k, B_k) of each state whose LOO
    coefficient matrix is in ``coeff``; all but the covariance sum clipped at 0.

    With a = sqrt(d_B) C[:, -1] = (<G_i>) and b = sqrt(d_A) C[-1, :], a set's
    rows alpha, beta (``coords_a``, ``coords_b``, last rows sigma_A, sigma_B)
    give sum Var A = sigma_A . a - |alpha a|^2, likewise for B, and
    sum Cov = tr(alpha (C - a b^T) beta^T).  A ``SchmidtFrame`` gives d_X - |x|^2
    and sum Cov = -T, T = sum_k s_k - (U^T a).(V^T b), with C = U S V^T.  The
    local sum of a side of dimension 1 is exactly 0, not its round-off.
    """
    da, db = obs.dim_a, obs.dim_b
    lead = coeff.shape[:-2]
    # each product has one state's shape and each sum runs over one state's
    # last axis, so a state of a stack gets the bits it gets alone
    a, b = math.sqrt(db) * coeff[..., None, :, -1], math.sqrt(da) * coeff[..., -1, :, None]
    out = np.empty(lead + (4,))
    if isinstance(obs, SchmidtFrame):
        u, s, vt = np.linalg.svd(coeff, full_matrices=False)
        out[..., 0] = da - _dot(a[..., 0, :], a[..., 0, :])
        out[..., 1] = db - _dot(b[..., 0], b[..., 0])
        out[..., 3] = _dot((a @ u)[..., 0, :], (vt @ b)[..., 0]) - s.sum(axis=-1)
    else:
        means_a = (a @ obs.coords_a.T)[..., 0, :]  # <A_k>, then sum_k <A_k^2>
        means_b = (obs.coords_b @ b)[..., 0]
        alpha, beta = means_a[..., :-1], means_b[..., :-1]
        out[..., 0] = means_a[..., -1] - _dot(alpha, alpha)
        out[..., 1] = means_b[..., -1] - _dot(beta, beta)
        pair = obs.coords_a[:-1].T @ obs.coords_b[:-1]
        out[..., 3] = _dot(coeff.reshape(lead + (-1,)), pair.reshape(-1)) - _dot(alpha, beta)
    for side, d in enumerate((da, db)):
        if d == 1:  # only multiples of 1 act on the side: their variances are 0
            out[..., side] = 0.0
    out[..., 2] = out[..., 0] + out[..., 1] + 2.0 * out[..., 3]
    np.maximum(out[..., :3], 0.0, out=out[..., :3])
    out.setflags(write=False)
    return out


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sum over the last axis of x * y, per state of a stack."""
    return (x * y).sum(axis=-1)


def joint_variance_sum(rho, obs: Observables):
    """sum_k Var(A_k (x) 1 + 1 (x) B_k) on the joint state (per state of a
    stack)."""
    lhs = _sums(rho, obs)[..., 2]
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


def eval_lur(rho, obs: Observables):
    """Original variance criterion: violation iff lhs < U_A + U_B."""
    lhs = _sums(rho, obs)[..., 2]
    rhs = obs.bound_a + obs.bound_b
    return _result(rho, "lur", lhs, rhs, rhs - lhs,
                   {"variance_sum": lhs, "U_A": obs.bound_a, "U_B": obs.bound_b})


def _tlur_parts(rho, obs: Observables, bounds=None) -> dict:
    """Joint and local variance sums, excesses and M against ``bounds``
    (U_A, U_B), by default the set's own; one entry per state."""
    u_a, u_b = bounds or (obs.bound_a, obs.bound_b)
    sums = _sums(rho, obs)
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


def eval_tlur(rho, obs: Observables):
    """Tightened criterion: separable bound raised by M^2."""
    c = _tlur_parts(rho, obs)
    rhs = c["U_A"] + c["U_B"] + c["M"] ** 2
    return _result(rho, "tlur", c["variance_sum"], rhs, rhs - c["variance_sum"], c)


def eval_tlur_dual(rho, obs: Observables):
    """Dual upper bound; violation iff lhs exceeds U_A + U_B + (sqrt+sqrt)^2."""
    c = _tlur_parts(rho, obs)
    rhs = c["U_A"] + c["U_B"] + (np.sqrt(c["excess_A"]) + np.sqrt(c["excess_B"])) ** 2
    return _result(rho, "tlur_dual", c["variance_sum"], rhs, c["variance_sum"] - rhs, c)


def eval_lemma1(rho, obs: Observables):
    """sqrt(excess_A * excess_B) +/- cross-covariance sum >= 0, both signs."""
    sums = _sums(rho, obs)
    excess = _excesses(sums[..., :2], (obs.bound_a, obs.bound_b))
    ea, eb = excess[..., 0], excess[..., 1]
    cov = sums[..., 3]
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


def _loo_parts(rho, obs: Observables, name: str) -> dict:
    """TLUR parts of an LOO pair against U_X = d_X - 1, the exact minimum of a
    complete LOO side (a declared side may carry a lower bound)."""
    if not obs.is_loo_pair:
        raise ValidationError(f"criterion '{name}' needs complete LOO bases on both sides")
    return _tlur_parts(rho, obs, (obs.dim_a - 1.0, obs.dim_b - 1.0))


def eval_nonlinear_witness(rho, obs: Observables):
    """LOO witness 1 - sum_k <G_k^A (x) G_k^B> - sum_k (<G_k^A> - <G_k^B>)^2 / 2
    on an LOO pair A_k = G_k^A, B_k = -G_k^B: half the LUR excess
    lhs - U_A - U_B.  Separable => value >= 0."""
    c = _loo_parts(rho, obs, "nonlinear_witness")
    value = (c["variance_sum"] - c["U_A"] - c["U_B"]) / 2
    return _result(rho, "nonlinear_witness", value, 0.0, -value, c)


def eval_corollary1(rho, obs: Observables):
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


def _measures(rho, obs: Observables) -> tuple[np.ndarray, np.ndarray]:
    c = _tlur_parts(rho, obs)
    u_sum = c["U_A"] + c["U_B"]
    if u_sum <= 0.0:
        raise ParameterRangeError("measures need a positive bound sum U_A + U_B")
    c_lur = 1.0 - c["variance_sum"] / u_sum
    c_tlur = 1.0 - (c["variance_sum"] - c["M"] ** 2) / u_sum
    return c_lur, c_tlur


def entanglement_measures(rho, obs: Observables):
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


def eval_measure(rho, obs: Observables, which: str):
    """The estimate ``which`` ("c_lur" or "c_tlur") as a criterion whose
    margin is the estimate itself."""
    c_lur, c_tlur = _measures(rho, obs)
    value = c_lur if which == "c_lur" else c_tlur
    return _result(rho, which, value, 0.0, value, {"c_lur": c_lur, "c_tlur": c_tlur})


def loo_bases_from_set(obs: Observables) -> tuple[np.ndarray, np.ndarray]:
    """The LOO bases (G^A, G^B) of an LOO pair A_k = G_k^A, B_k = -G_k^B, zero
    padding dropped.  Nothing in the package calls it; the benchmark's tracer
    (``perfbench/tracing.py``) looks it up by name."""
    if not (isinstance(obs, LocalObservableSet) and obs.is_loo_pair):
        raise ValidationError("the set holds no complete LOO bases as operators")
    return _nonzero(obs.stack_a), -_nonzero(obs.stack_b)
