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
)

HERMITICITY_RTOL = 1e-10
EIGENVALUE_CLIP = 1e-10
TRACE_ATOL = 1e-10


def as_array(obj) -> np.ndarray:
    """Unwrap ``HermitianOperator``/``DensityMatrix`` or coerce to complex array."""
    m = getattr(obj, "matrix", obj)
    return np.asarray(m, dtype=complex)


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def is_hermitian(m, rtol: float = HERMITICITY_RTOL) -> bool:
    m = as_array(m)
    scale = max(np.abs(m).max(), 1.0) if m.size else 1.0
    return bool(np.abs(m - m.conj().T).max() <= rtol * scale)


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix acting on one subsystem."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("operator has non-finite entries")
        if not is_hermitian(m):
            raise ValidationError("operator is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hermitian_stack(ops) -> np.ndarray:
    """Stack operators (``HermitianOperator``s, matrices, or an (n, d, d)
    array) into a read-only complex (n, d, d) array.

    All n operators are validated in one pass, each with ``HermitianOperator``'s
    own tolerance: residual at most 1e-10 times max(its max-norm, 1).
    """
    if not isinstance(ops, np.ndarray):
        ops = [as_array(op) for op in ops]
        if len({op.shape for op in ops}) > 1:
            raise DimensionMismatchError("operators must share one shape")
    s = np.array(ops, dtype=complex)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise DimensionMismatchError(f"operators must be square, got stack shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValidationError("operator has non-finite entries")
    scale = np.maximum(np.abs(s).max(axis=(1, 2)), 1.0)
    resid = np.abs(s - s.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    if (resid > HERMITICITY_RTOL * scale).any():
        raise ValidationError("operator is not Hermitian within tolerance")
    s.setflags(write=False)
    return s


@dataclass(frozen=True)
class DensityMatrix:
    """A validated bipartite mixed state with local dimensions (dim_a, dim_b)."""

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionMismatchError("local dimensions must be positive")
        if m.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match dims ({self.dim_a},{self.dim_b})")
        if not np.isfinite(m).all():
            raise ValidationError("density matrix has non-finite entries")
        if not is_hermitian(m):
            raise ValidationError("density matrix is not Hermitian within tolerance")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"trace is {tr}, expected 1 within {TRACE_ATOL}")
        w = np.linalg.eigvalsh(m)
        if w.min() < -EIGENVALUE_CLIP:
            raise ValidationError(f"minimum eigenvalue {w.min():.3e} below -{EIGENVALUE_CLIP}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)


def _dims_of(rho, dims) -> tuple[np.ndarray, int, int]:
    if isinstance(rho, DensityMatrix):
        return np.asarray(rho.matrix), rho.dim_a, rho.dim_b
    if dims is None:
        raise DimensionMismatchError("dims=(dim_a, dim_b) required for a bare array")
    m = as_array(rho)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise DimensionMismatchError(f"shape {m.shape} does not match dims {dims}")
    return m, da, db


def tensor(a, b) -> np.ndarray:
    """Kronecker product; B index fastest-varying."""
    return np.kron(as_array(a), as_array(b))


def _check_side(side: str) -> str:
    if side not in ("A", "B"):
        raise ParameterRangeError(f"subsystem must be 'A' or 'B', got {side!r}")
    return side


def partial_trace(rho, traced: str = "B", dims=None) -> np.ndarray:
    """Trace out one subsystem; returns the reduced matrix of the other."""
    m, da, db = _dims_of(rho, dims)
    t = m.reshape(da, db, da, db)
    if _check_side(traced) == "B":
        return np.einsum("ikjk->ij", t)
    return np.einsum("kikj->ij", t)


def partial_transpose(rho, transposed: str = "B", dims=None) -> np.ndarray:
    """Transpose the indices of one subsystem only."""
    m, da, db = _dims_of(rho, dims)
    t = m.reshape(da, db, da, db)
    if _check_side(transposed) == "B":
        return t.transpose(0, 3, 2, 1).reshape(da * db, da * db)
    return t.transpose(2, 1, 0, 3).reshape(da * db, da * db)


def realign(rho, dims=None) -> np.ndarray:
    """Realignment R(rho)[(i,j),(k,l)] = rho[(i,k),(j,l)], shape (dim_a^2, dim_b^2)."""
    m, da, db = _dims_of(rho, dims)
    return m.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def expectation(op, rho) -> float:
    """<op> = Tr(rho op), real part (inputs are Hermitian)."""
    a, r = as_array(op), as_array(rho)
    if a.shape != r.shape:
        raise DimensionMismatchError(f"operator shape {a.shape} vs state shape {r.shape}")
    return float(np.trace(r @ a).real)


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


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    try:
        return np.linalg.eigh(as_array(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc


def min_eigenvalue(m) -> float:
    try:
        return float(np.linalg.eigvalsh(as_array(m)).min())
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD (u, s, vh) with singular values in descending order."""
    try:
        return np.linalg.svd(as_array(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc


def trace_norm(m) -> float:
    """Sum of singular values."""
    try:
        return float(np.linalg.svd(as_array(m), compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc
