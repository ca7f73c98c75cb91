"""Complex-Hermitian linear algebra for bipartite states.

Conventions used throughout the package:

* Composite indices are ``(i_A, i_B)`` with the B index fastest-varying,
  i.e. a bipartite matrix row index is ``i_A * dim_b + i_B``.  This is the
  ordering produced by ``numpy.kron(A, B)``.
* The realignment map is fixed to ``R(rho)[(i,j),(k,l)] = rho[(i,k),(j,l)]``,
  giving a ``dim_a**2 x dim_b**2`` matrix.  Both common conventions share the
  same trace norm, but operator Schmidt factors depend on the choice.
* Hermiticity is validated to ``1e-10`` relative on the max-norm; density
  matrix eigenvalues may round off to ``-1e-10`` and are clipped to zero
  where square roots or purities are taken downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalFailureError,
    ParameterRangeError,
    ValidationError,
    raise_first,
)

HERMITICITY_RTOL = 1e-10
EIGENVALUE_CLIP = 1e-10
TRACE_ATOL = 1e-10


def as_array(obj) -> np.ndarray:
    """Unwrap ``HermitianOperator``/``DensityMatrix`` or coerce to complex array."""
    m = getattr(obj, "matrix", obj)
    return np.asarray(m, dtype=complex)


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix acting on one subsystem."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise DimensionMismatchError(f"operator must be square, got shape {m.shape}")
        check_hermitian(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hermiticity_residual(s: np.ndarray) -> np.ndarray:
    """|s - s^dagger| entry by entry, of a matrix or a stack, as a new array."""
    diff = np.conjugate(s)  # a new array also for a real s, whose s.conj() is s itself
    np.subtract(diff, s.swapaxes(-1, -2), out=diff)  # conj(s - s^dagger)
    return np.abs(diff)


def non_hermitian(s: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack (a 0-d array for one matrix) fails
    ``HermitianOperator``'s tolerance: max |s - s^dagger| above 1e-10 times
    max(its max-norm, 1).  That scale is at least 1, so a stack with no
    residual entry above 1e-10 passes without the per-matrix norms."""
    resid = hermiticity_residual(s)
    if not (resid > HERMITICITY_RTOL).any():
        return np.zeros(s.shape[:-2], dtype=bool)
    scale = np.maximum(np.abs(s).max(axis=(-2, -1)), 1.0)
    return resid.max(axis=(-2, -1)) > HERMITICITY_RTOL * scale


def check_hermitian(s: np.ndarray) -> None:
    """Validate every operator of a stack in one pass, each with
    ``HermitianOperator``'s own tolerance (``non_hermitian``)."""
    if not np.isfinite(s).all():
        raise ValidationError("operator has non-finite entries")
    if non_hermitian(s).any():
        raise ValidationError("operator is not Hermitian within tolerance")


def hermitian_stack(ops) -> np.ndarray:
    """Operators (``HermitianOperator``s, matrices, or an (n, d, d) array) as
    one validated read-only complex copy."""
    if not isinstance(ops, np.ndarray):
        ops = [as_array(op) for op in ops]
        if len({op.shape for op in ops}) > 1:
            raise DimensionMismatchError("operators must share one shape")
    s = np.array(ops, dtype=complex)
    if s.ndim != 3 or s.shape[-1] != s.shape[-2]:
        raise DimensionMismatchError(f"operators must be square, got stack shape {s.shape}")
    check_hermitian(s)
    s.setflags(write=False)
    return s


def _validated_states(m, dim_a: int, dim_b: int, ndim: int) -> np.ndarray:
    """``m`` checked as density matrices in one pass, each with the same
    tolerances: one (d, d) matrix for ``ndim`` 2, a stack (N, d, d) for 3.
    Returns a read-only complex copy.

    A float64 input (the real families build real states) is checked in its
    own real arithmetic: the residuals and norms equal those of its complex
    copy, the trace is summed as in that copy (so a failed check prints it as
    before, a complex number), and the positivity check runs on the real
    symmetric matrices.  It is copied to complex once it has passed.  Any
    other input is copied to complex first and checked there, so a complex
    one is copied once.

    Positivity is one batched Cholesky factorisation of m + s * 1, with the
    shift s a margin of 16 (d + 1) eps short of the clip 1e-10.  Cholesky is
    backward stable: it can succeed on a matrix whose smallest eigenvalue
    lies below 0 by up to about (d + 1) eps times its trace, and ``eigvalsh``
    reads an eigenvalue to a few d eps.  The margin exceeds both, so a
    success means every state's smallest eigenvalue lies above -1e-10 as
    ``eigvalsh`` reads it (for the states that pass the trace check, whose
    error comes first).  Only when it fails does ``min_eigenvalues`` run, so
    the rule (smallest eigenvalue below -1e-10) decides each failing state,
    and names it, as ``eigvalsh`` reads it.
    """
    m = np.asarray(m)
    real = m.dtype == np.float64
    if not real:
        m = np.array(m, dtype=complex)
    d = dim_a * dim_b
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatchError("local dimensions must be positive")
    if m.ndim != ndim or m.shape[-2:] != (d, d):
        raise DimensionMismatchError(
            f"{'matrix' if ndim == 2 else 'stack'} shape {m.shape} does not match "
            f"dims ({dim_a},{dim_b})")
    if not np.isfinite(m).all():
        raise_first(~np.isfinite(m).all(axis=(-2, -1)), ValidationError,
                    lambda k: "density matrix has non-finite entries")
    bad_h = non_hermitian(m)
    tr = np.trace(m, axis1=-2, axis2=-1, dtype=complex)  # summed as in the complex copy
    bad_t = np.abs(tr - 1.0) > TRACE_ATOL
    bad_w = np.zeros(m.shape[:-2], dtype=bool)
    shift = EIGENVALUE_CLIP - 16 * (d + 1) * np.finfo(float).eps
    try:
        np.linalg.cholesky(m + shift * np.eye(d))
    except np.linalg.LinAlgError:  # a state may lie below the clip: eigvalsh decides
        w = min_eigenvalues(m)
        bad_w = w < -EIGENVALUE_CLIP
    if (bad_h | bad_t | bad_w).any():  # one test; the checks keep their order
        raise_first(bad_h, ValidationError,
                    lambda k: "density matrix is not Hermitian within tolerance")
        raise_first(bad_t, ValidationError,
                    lambda k: f"trace is {tr.reshape(-1)[k]}, expected 1 within {TRACE_ATOL}")
        raise_first(bad_w, ValidationError,
                    lambda k: f"minimum eigenvalue {w.reshape(-1)[k]:.3e} below "
                              f"-{EIGENVALUE_CLIP}")
    if real:
        m = m.astype(complex)
    m.setflags(write=False)
    return m


class _Bipartite:
    dim_a: int
    dim_b: int

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)


@dataclass(frozen=True)
class DensityMatrix(_Bipartite):
    """A validated bipartite mixed state with local dimensions (dim_a, dim_b).

    The one-state case of ``DensityStack``: validated by the same pass, and
    ``states`` is ``matrix`` itself, states with no leading axis.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _validated_states(self.matrix, self.dim_a, self.dim_b, 2))

    @property
    def states(self) -> np.ndarray:
        return self.matrix


@dataclass(frozen=True)
class DensityStack(_Bipartite):
    """N validated bipartite states of one bipartition: ``states`` (N, d, d),
    checked in one pass with ``DensityMatrix``'s tolerances.  A failed check
    names the first offending state in its message and in ``error.state``."""

    dim_a: int
    dim_b: int
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states",
                           _validated_states(self.states, self.dim_a, self.dim_b, 3))


def _dims_of(rho, dims) -> tuple[np.ndarray, int, int]:
    """The matrix (or (N, d, d) stack) of ``rho`` and its local dimensions."""
    if isinstance(rho, (DensityMatrix, DensityStack)):
        return rho.states, rho.dim_a, rho.dim_b
    if dims is None:
        raise DimensionMismatchError("dims=(dim_a, dim_b) required for a bare array")
    m = as_array(rho)
    da, db = dims
    if m.shape[-2:] != (da * db, da * db) or m.ndim not in (2, 3):
        raise DimensionMismatchError(f"shape {m.shape} does not match dims {dims}")
    return m, da, db


def _check_side(side: str) -> str:
    if side not in ("A", "B"):
        raise ParameterRangeError(f"subsystem must be 'A' or 'B', got {side!r}")
    return side


def partial_trace(rho, traced: str = "B", dims=None) -> np.ndarray:
    """Trace out one subsystem; returns the reduced matrix of the other (one
    per state for a stack)."""
    m, da, db = _dims_of(rho, dims)
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    if _check_side(traced) == "B":
        return np.einsum("...ikjk->...ij", t)
    return np.einsum("...kikj->...ij", t)


def partial_transpose(rho, transposed: str = "B", dims=None) -> np.ndarray:
    """Transpose the indices of one subsystem only (of each state of a stack)."""
    m, da, db = _dims_of(rho, dims)
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    swapped = t.swapaxes(-3, -1) if _check_side(transposed) == "B" else t.swapaxes(-4, -2)
    return swapped.reshape(m.shape)


def realign(rho, dims=None) -> np.ndarray:
    """Realignment R(rho)[(i,j),(k,l)] = rho[(i,k),(j,l)], shape (dim_a^2, dim_b^2)
    (with a leading N axis for a stack)."""
    m, da, db = _dims_of(rho, dims)
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    return t.swapaxes(-3, -2).reshape(m.shape[:-2] + (da * da, db * db))


def variance(op, rho) -> float:
    """<op^2> - <op>^2, clipped to zero against round-off."""
    a, r = as_array(op), as_array(rho)
    if a.shape != r.shape:
        raise DimensionMismatchError(f"operator shape {a.shape} vs state shape {r.shape}")
    mean = np.trace(r @ a).real
    second = np.trace(r @ a @ a).real
    return max(second - mean * mean, 0.0)


def purity(rho) -> float:
    m = as_array(rho)
    return float(np.trace(m @ m).real)


def min_eigenvalues(m) -> np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix, or of each of a stack."""
    try:
        return np.linalg.eigvalsh(m)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc


def min_eigenvalue(m) -> float:
    return float(min_eigenvalues(as_array(m)))


def trace_norms(m) -> np.ndarray:
    """Sum of singular values of a matrix, or of each of a stack."""
    try:
        return np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(trace_norms(as_array(m)))
