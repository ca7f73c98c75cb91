"""Local observable sets and their certified sum-uncertainty bounds.

A ``LocalObservableSet`` pairs equal-length lists {A_k} on subsystem A and
{B_k} on subsystem B with lower bounds ``bound_a <= min_psi sum_k Var(A_k)``
and likewise for B, the minimum running over pure states (the variance sum
is concave in the state, so pure states attain the minimum).  Sets carry
their operators as validated (n, d, d) stacks, which the certifier reads,
and real coordinate rows: alpha_k = coords(A_k) in the canonical LOO
basis, then the coordinates of sum_k A_k^2, likewise for B.
``schmidt_loo_pair(rho)`` adapts a set to one state; ``SchmidtFrame`` is
that pair for any state, read from the SVD of its coefficient matrix, and
is what ``scan.Plan`` resolves the ``"schmidt_loo_pair"`` spec to.  Both
are frames: ``moments(rho)`` maps a state or a stack, by its LOO
coefficient matrix (``loo_coefficients``), to the ``Moments`` record that
every set criterion reads.

Closed-form bounds (Hofmann & Takeuchi, PRA 68, 032103 (2003)): a complete
set of local orthogonal observables (LOO: d^2 Hermitian operators with
Tr(G_k G_l) = delta_kl) has sum-variance d - Tr(rho^2), hence bound d - 1,
and the d^2-1 generators (Tr(g_i g_j) = 2 delta_ij) twice that, hence
2(d-1).  Both are one fact: variances ignore multiples of 1, so a side
whose traceless coordinate Gram is c 1 has the exact bound c (d - 1).

Every constructed set has both bounds checked by one certifier: a side of
that kind (every builder's sides are) is held to c (d - 1); any other qubit
side to the exact minimum sum_k |a_k|^2 - lambda_max(sum_k a_k a_k^T),
where A_k = a_k0 1 + a_k . sigma.  Any other side, such as declared qutrit
``opsA``/``opsB`` matrices, must not exceed the best of a few seeded starts
of the minimizer that ``uncertainty_bound(mode="numeric")`` runs.  The
certifier also records whether both sides are LOO sides, of coordinate
Gram 1 (``is_loo_pair``): an LOO pair A_k = G_k^A, B_k = -G_k^B or an
overcomplete tight frame of one, on which the LOO witnesses are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateDecompositionError,
    DimensionMismatchError,
    InvalidBoundError,
    NumericalFailureError,
    ParameterRangeError,
    SpecParseError,
    ValidationError,
    raise_first,
    shown,
)
from .linops import (
    DensityMatrix,
    HermitianOperator,
    hermitian_stack,
    realign,
)
from .states import (
    is_finite, is_number, parse_complex_matrix, random_pure_state, spec_integer, spec_number,
)

__all__ = [
    "BoundProvenance", "Frame", "LocalObservableSet", "Moments",
    "su_generators", "loo_basis", "pauli_loo_pair", "loo_pair", "su_pair",
    "loo_coefficients", "operator_schmidt", "schmidt_loo_pair", "SchmidtFrame",
    "uncertainty_bound", "observables_from_spec", "OBS_BUILDERS",
]

SAFETY_MARGIN = 1e-6
ORTHONORMALITY_ATOL = 1e-10
SYMMETRIZATION_ATOL = 1e-8
_CERTIFY_SEED = 1905
_CERTIFY_STARTS = 4


def _vecs(stack: np.ndarray) -> np.ndarray:
    """Row-major vec of each operator: (n, d, d) -> (n, d^2)."""
    return stack.reshape(len(stack), -1)


def _nonzero(stack: np.ndarray) -> np.ndarray:
    """The operators of a stack with nonzero Frobenius norm (drops zero padding)."""
    keep = np.linalg.norm(_vecs(stack), axis=-1) > 1e-12
    return stack if keep.all() else stack[keep]


def _zero_pad(stack: np.ndarray, n: int) -> np.ndarray:
    """Append zero operators up to length n."""
    return np.concatenate([stack, np.zeros((n - len(stack),) + stack.shape[1:], dtype=complex)])


def _coords(stack: np.ndarray, side: str) -> np.ndarray:
    """Real coordinates Tr(G_i X) in the canonical LOO basis {G_i} of the
    operators X_k of an (n, d, d) stack, then of sum_k X_k^2: (n + 1, d^2),
    read-only.  Hermitian operators have real coordinates.  Rows that are
    not finite (operators whose squares pass the float range) are refused,
    naming ``side``, with no warning: no bound can be certified from them."""
    d = stack.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        vecs = np.concatenate([_vecs(stack), (stack @ stack).sum(axis=0).reshape(1, -1)])
        coords = np.ascontiguousarray((vecs @ _loo_vec_matrix(d).conj()).real)
    if not np.isfinite(coords).all():
        raise ValidationError(f"{side}: the coordinates of the operators and of the sum "
                              "of their squares are not finite")
    coords.setflags(write=False)
    return coords


@dataclass(frozen=True)
class BoundProvenance:
    """How a bound was obtained: closed form, seeded numeric minimization, or
    declared with explicit matrices."""

    mode: str  # "analytic" | "numeric" | "declared" (user-supplied opsA/opsB)
    seed: int | None = None
    restarts: int | None = None
    tolerance: float | None = None

    def to_dict(self) -> dict:
        out = {"mode": self.mode}
        if self.mode == "numeric":
            out.update(seed=self.seed, restarts=self.restarts, tolerance=self.tolerance)
        return out


class Frame:
    """An observable set as the criteria see it: ``moments(rho)`` maps a state
    or a stack to its ``Moments``.  A frame has ``dim_a``, ``dim_b``,
    ``bound_a``, ``bound_b``, ``is_loo_pair`` and ``_local_sums``."""

    def check_dims(self, dims: tuple[int, int]) -> None:
        """Refuse the states of a bipartition the frame does not act on."""
        if (self.dim_a, self.dim_b) != dims:
            raise DimensionMismatchError(
                f"observables act on ({self.dim_a},{self.dim_b}) but state has "
                f"({dims[0]},{dims[1]})")

    def moments(self, rho) -> Moments:
        """The ``Moments`` of ``rho`` (a state or a stack).  The frame's
        ``_local_sums(coeff, a, b)`` gives sum Var A, sum Var B and sum Cov of
        each state from its LOO coefficient matrix C, with a = sqrt(d_B) C[:, -1]
        = (<G_i>) as a row and b = sqrt(d_A) C[-1, :] = (<H_j>) as a column.  The
        local sum of a side of dimension 1 is exactly 0, not its round-off."""
        self.check_dims(rho.dims)
        da, db = rho.dims
        coeff = loo_coefficients(rho)
        # each product has one state's shape and each sum runs over one state's
        # last axis, so a state of a stack gets the bits it gets alone
        a, b = math.sqrt(db) * coeff[..., None, :, -1], math.sqrt(da) * coeff[..., -1, :, None]
        sums = np.empty(coeff.shape[:-2] + (4,))
        sums[..., 0], sums[..., 1], sums[..., 3] = self._local_sums(coeff, a, b)
        for side, d in enumerate((da, db)):
            if d == 1:  # only multiples of 1 act on the side: their variances are 0
                sums[..., side] = 0.0
        sums[..., 2] = sums[..., 0] + sums[..., 1] + 2.0 * sums[..., 3]
        np.maximum(sums[..., :3], 0.0, out=sums[..., :3])
        sums.setflags(write=False)
        return Moments(rho, sums, self.bound_a, self.bound_b, da, db, self.is_loo_pair)


@dataclass(frozen=True)
class LocalObservableSet(Frame):
    """Paired local observables with certified sum-uncertainty bounds.

    ``stack_a`` (n, d_A, d_A) and ``stack_b`` (n, d_B, d_B) are the operators
    A_k and B_k, given as ``HermitianOperator``s, matrices or arrays and kept
    as validated read-only stacks for the certifier.  The criteria read the
    real coordinate rows instead: ``coords_a`` (n + 1, d_A^2) holds
    alpha_k = coords(A_k) in the canonical LOO basis for k < n, then the
    coordinates of sum_k A_k^2; ``coords_b`` likewise.
    ``is_loo_pair`` is True when the certifier found both sides to be LOO
    sides (coordinate Gram 1), so that the LOO witnesses apply.
    """

    stack_a: np.ndarray
    stack_b: np.ndarray
    bound_a: float
    bound_b: float
    provenance: BoundProvenance
    coords_a: np.ndarray = field(init=False, repr=False, compare=False)
    coords_b: np.ndarray = field(init=False, repr=False, compare=False)
    is_loo_pair: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.stack_a) != len(self.stack_b) or not len(self.stack_a):
            raise ValidationError("stack_a and stack_b must be non-empty and of equal length")
        a, b = hermitian_stack(self.stack_a), hermitian_stack(self.stack_b)
        for name, value in (("stack_a", a), ("stack_b", b),
                            ("coords_a", _coords(a, "side A")),
                            ("coords_b", _coords(b, "side B"))):
            object.__setattr__(self, name, value)
        for key in ("bound_a", "bound_b"):
            if not is_number(getattr(self, key)):
                raise ValidationError(
                    f"{key} must be a number, got {shown(getattr(self, key), repr)}")
        if not (is_finite(self.bound_a) and is_finite(self.bound_b)):
            raise ValidationError("bounds must be finite")
        if self.bound_a < 0 or self.bound_b < 0:
            raise ValidationError("bounds must be nonnegative")
        loo = True
        for side, stack, coords, bound in (("A", a, self.coords_a, self.bound_a),
                                           ("B", b, self.coords_b, self.bound_b)):
            # the one certifier: an exact minimum where a closed form exists,
            # else a variance sum the minimizer reaches from fixed seeded starts
            attained, is_loo = _closed_form(stack, coords)
            if attained is None:
                attained = _numeric_minimum(stack, _CERTIFY_SEED, _CERTIFY_STARTS)
            if bound > attained + 1e-8:
                raise InvalidBoundError(
                    f"declared bound {bound} on side {side} exceeds the variance "
                    f"sum {attained} that a pure state attains")
            loo = loo and is_loo
        object.__setattr__(self, "is_loo_pair", loo)

    def _local_sums(self, coeff, a, b):
        """The rows alpha, beta (last rows sigma_A, sigma_B) give sum Var A =
        sigma_A . a - |alpha a|^2, likewise for B, and
        sum Cov = tr(alpha (C - a b^T) beta^T)."""
        means_a = (a @ self.coords_a.T)[..., 0, :]  # <A_k>, then sum_k <A_k^2>
        means_b = (self.coords_b @ b)[..., 0]
        alpha, beta = means_a[..., :-1], means_b[..., :-1]
        pair = self.coords_a[:-1].T @ self.coords_b[:-1]
        cov = _dot(coeff.reshape(coeff.shape[:-2] + (-1,)), pair.reshape(-1)) - _dot(alpha, beta)
        return means_a[..., -1] - _dot(alpha, alpha), means_b[..., -1] - _dot(beta, beta), cov

    @property
    def n(self) -> int:
        return len(self.stack_a)

    @property
    def dim_a(self) -> int:
        return self.stack_a.shape[-1]

    @property
    def dim_b(self) -> int:
        return self.stack_b.shape[-1]


@lru_cache(maxsize=None)
def _su_stack(d: int) -> np.ndarray:
    """The generators of ``su_generators`` as one read-only stack."""
    if d < 2:
        raise ParameterRangeError(f"dimension must be >= 2, got {d}")
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            out.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            out.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -l
        out.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    return hermitian_stack(out)


def su_generators(d: int) -> list[HermitianOperator]:
    """Generalized Gell-Mann matrices, Tr(g_i g_j) = 2 delta_ij.

    Order: symmetric pairs (j<k lexicographic), antisymmetric pairs, then
    the d-1 diagonal generators.  d=2 gives (sigma_x, sigma_y, sigma_z).
    """
    return [HermitianOperator(m) for m in _su_stack(d)]


@lru_cache(maxsize=None)
def _loo_stack(d: int) -> np.ndarray:
    """The operators of ``loo_basis`` as one read-only stack (d = 1: the identity)."""
    eye = np.eye(d, dtype=complex)[None] / np.sqrt(d)
    return hermitian_stack(np.concatenate([_su_stack(d) / np.sqrt(2.0), eye]) if d > 1 else eye)


def loo_basis(d: int) -> np.ndarray:
    """Canonical LOO basis as a read-only (d^2, d, d) stack: normalized
    generators plus identity/sqrt(d) last."""
    return _loo_stack(d)


@lru_cache(maxsize=None)
def _loo_vec_matrix(d: int) -> np.ndarray:
    """Unitary whose columns are row-major vec(G_k) of the canonical LOO basis."""
    return np.ascontiguousarray(_loo_stack(d).reshape(d * d, d * d).T)


@lru_cache(maxsize=1)
def pauli_loo_pair() -> LocalObservableSet:
    """Qubit pair tuned to the singlet: A_k = G_k^A, B_k = -G_k^B with
    G^A = (-x, -y, -z, 1)/sqrt(2) and G^B = (x, y, z, 1)/sqrt(2).

    The four joint operators A_k (x) 1 + 1 (x) B_k all annihilate the
    singlet, so its joint variance sum is zero against bounds of 1 + 1.
    Built once per process and shared, as a set is immutable.
    """
    gx, gy, gz, gi = _loo_stack(2)
    return LocalObservableSet(np.stack([-gx, -gy, -gz, gi]), -_loo_stack(2), 1.0, 1.0,
                              BoundProvenance("analytic"))


@lru_cache(maxsize=16)
def _fixed_pair(stack, scale: float, dim_a: int, dim_b: int, pairing: str) -> LocalObservableSet:
    """A_k = X_k, B_k = -X_k* (or -X_k for 'direct') of the ``stack`` operators,
    with bounds ``scale`` (d - 1); built once per process for its arguments and
    shared, as a set is immutable.  The caller checks ``pairing``."""
    stack_a, stack_b = stack(dim_a), stack(dim_b)
    if pairing == "conjugate":
        stack_b = stack_b.conj()
    n = max(len(stack_a), len(stack_b))
    return LocalObservableSet(_zero_pad(stack_a, n), _zero_pad(-stack_b, n),
                              scale * (dim_a - 1), scale * (dim_b - 1),
                              BoundProvenance("analytic"))


def _checked_pairing(pairing) -> str:
    if pairing not in ("conjugate", "direct"):
        raise ParameterRangeError(f"pairing must be 'conjugate' or 'direct', got {pairing!r}")
    return pairing


def loo_pair(dim_a: int, dim_b: int | None = None, pairing: str = "conjugate") -> LocalObservableSet:
    """Canonical full-LOO pair A_k = G_k, B_k = -G_k* (or -G_k for 'direct').

    The conjugate pairing annihilates the maximally entangled state.  Sides
    of unequal dimension are zero-padded to a common length; bounds are
    d_a - 1 and d_b - 1.
    """
    dim_b = dim_a if dim_b is None else dim_b
    return _fixed_pair(_loo_stack, 1.0, dim_a, dim_b, _checked_pairing(pairing))


def su_pair(dim_a: int, dim_b: int | None = None, pairing: str = "conjugate") -> LocalObservableSet:
    """Generator pair A_k = g_k, B_k = -g_k* (or -g_k for 'direct'), with the
    exact bounds 2(d_a - 1) and 2(d_b - 1) of generator sets."""
    dim_b = dim_a if dim_b is None else dim_b
    return _fixed_pair(_su_stack, 2.0, dim_a, dim_b, _checked_pairing(pairing))


@lru_cache(maxsize=None)
def _times_conj_vec(d: int) -> np.ndarray:
    """Real (2d^2, 2d^2) matrix that multiplies complex rows, stored as
    interleaved (re, im) pairs, by the conjugate of ``_loo_vec_matrix(d)``."""
    w = _loo_vec_matrix(d).conj()
    m = np.kron(w.real, np.eye(2)) + np.kron(w.imag, [[0.0, 1.0], [-1.0, 0.0]])
    m.setflags(write=False)
    return m


def loo_coefficients(rho) -> np.ndarray:
    """The real coefficient matrix C_ij = <G_i (x) H_j> of
    rho = sum_ij C_ij G_i (x) H_j in the canonical LOO bases of A and B
    (``loo_basis``), (d_A^2, d_B^2), with a leading N axis for a stack: the
    realigned matrix in the LOO product basis.  The identity elements come
    last, so a = sqrt(d_B) C[:, -1] and b = sqrt(d_A) C[-1, :] hold <G_i> and
    <H_j>.  An imaginary residual above 1e-8 raises
    ``DegenerateDecompositionError``."""
    da, db = rho.dim_a, rho.dim_b
    # C^T = (R W_B^*)^T W_A^*, R = R(rho): two real products per state, so a
    # state of a stack gets the bits it gets alone.  The complex form
    # W_A^H @ R @ W_B^* does too, but takes up to twice as long on 2x2 stacks
    # of 3 to 63 states (17-45 us against 9-21 us, one BLAS thread)
    right = (realign(rho.states, (da, db)).view(np.float64) @ _times_conj_vec(db)).view(complex)
    coeff_t = (np.ascontiguousarray(right.swapaxes(-1, -2)).view(np.float64)
               @ _times_conj_vec(da)).view(complex)
    imag = np.abs(coeff_t.imag)
    if imag.max(initial=0.0) > SYMMETRIZATION_ATOL:
        imag = imag.max(axis=(-2, -1))
        raise_first(imag > SYMMETRIZATION_ATOL, DegenerateDecompositionError,
                    lambda k: f"coefficient matrix has imaginary residual "
                              f"{imag.reshape(-1)[k]:.2e}")
    return np.ascontiguousarray(coeff_t.real.swapaxes(-1, -2))


def operator_schmidt(rho):
    """Hermitian operator Schmidt decomposition rho = sum_k s_k G_k^A (x) G_k^B.

    The real SVD C = U S V^T of ``loo_coefficients(rho)`` yields nonnegative
    coefficients with orthonormal *Hermitian* factors G_k^A = sum_i U_ik G_i
    and G_k^B = sum_j V_jk H_j (real orthogonal mixes of Hermitian operators
    stay Hermitian), and the full SVD's factors already complete both LOO
    bases.  The factors are not checked again; a ``LocalObservableSet``
    built from them checks each one's Hermiticity to 1e-10 times max(its
    max-norm, 1), and their norms are at most 1.

    Returns ``(coeffs, ops_a, ops_b)`` with coeffs descending of length
    min(d_a^2, d_b^2) and the complete bases as (d_a^2, d_a, d_a) and
    (d_b^2, d_b, d_b) arrays.  A ``DensityStack`` of N states is decomposed
    by one batched SVD, and each output gains a leading N axis.
    """
    da, db = rho.dim_a, rho.dim_b
    o1, s, o2t = np.linalg.svd(loo_coefficients(rho))
    lead = s.shape[:-1]
    # column k of each product is vec G_k; the factors are views of it
    ops_a = np.moveaxis((_loo_vec_matrix(da) @ o1).reshape(lead + (da, da, da * da)), -1, -3)
    ops_b = np.moveaxis((_loo_vec_matrix(db) @ o2t.swapaxes(-1, -2)).reshape(
        lead + (db, db, db * db)), -1, -3)
    return s, ops_a, ops_b


def schmidt_loo_pair(rho: DensityMatrix) -> LocalObservableSet:
    """Observables adapted to one state: its Schmidt operators, paired with
    signs A_k = G_k^A, B_k = -G_k^B, extended to complete LOO bases.

    With these observables the joint variance sum equals
    d_a + d_b - 2 sum_k s_k - sum_k (<G_k^A> - <G_k^B>)^2, so a violation is
    at least as easy as a realignment (CCNR) violation.  A ``DensityStack``
    raises ``ValidationError``: its states read the ``SchmidtFrame``.
    """
    if not isinstance(rho, DensityMatrix):
        raise ValidationError("schmidt_loo_pair adapts to one state; a sweep's Schmidt frame "
                              "is resolved by scan.Plan (SchmidtFrame)")
    _, ops_a, ops_b = operator_schmidt(rho)
    n = max(len(ops_a), len(ops_b))
    return LocalObservableSet(_zero_pad(ops_a, n), _zero_pad(-ops_b, n),
                              rho.dim_a - 1.0, rho.dim_b - 1.0,
                              BoundProvenance("analytic"))


@dataclass(frozen=True)
class SchmidtFrame(Frame):
    """``schmidt_loo_pair`` of whichever state it is evaluated on, holding no
    operators: an LOO pair by construction, with the exact bounds d_X - 1."""

    dim_a: int
    dim_b: int
    is_loo_pair = True
    bound_a = property(lambda self: self.dim_a - 1.0)
    bound_b = property(lambda self: self.dim_b - 1.0)

    def _local_sums(self, coeff, a, b):
        """Each state on its own Schmidt pair: with C = U S V^T,
        sum Var A = d_A - |a|^2, likewise for B, and sum Cov = -T,
        T = sum_k s_k - (U^T a).(V^T b)."""
        u, s, vt = np.linalg.svd(coeff, full_matrices=False)
        cov = _dot((a @ u)[..., 0, :], (vt @ b)[..., 0]) - s.sum(axis=-1)
        a, b = a[..., 0, :], b[..., 0]
        return self.dim_a - _dot(a, a), self.dim_b - _dot(b, b), cov


@dataclass(frozen=True, eq=False)
class Moments:
    """A frame's record of a state or a stack; every set criterion is a closed
    form of it.  ``sums`` (..., 4), read-only: sum_k Var(A_k), sum_k Var(B_k),
    the joint sum local A + local B + 2 cov, and sum_k Cov(A_k, B_k) of each
    state, all but the covariance sum clipped at 0; with the frame's bounds,
    dims and ``is_loo_pair``.  ``moments(rho)`` returns the record itself for
    the state it was read from, so a criterion takes a frame or its record."""

    state: object = field(repr=False)
    sums: np.ndarray = field(repr=False)
    bound_a: float
    bound_b: float
    dim_a: int
    dim_b: int
    is_loo_pair: bool

    def moments(self, rho) -> Moments:
        if rho is not self.state:
            raise ValidationError("these moments were read from another state")
        return self


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sum over the last axis of x * y, per state of a stack."""
    return (x * y).sum(axis=-1)


def _closed_form(stack: np.ndarray, coords: np.ndarray) -> tuple[float | None, bool]:
    """The exact pure-state minimum of sum_k Var(A_k) over a side (None where
    no closed form applies) and whether it is an LOO side, both read from the
    Gram g = alpha^T alpha of its coordinate rows alpha.  Variances ignore
    multiples of 1, so a traceless block c 1 of g (c its mean diagonal to 10
    places) gives sum_k Var(A_k) = c (d - Tr rho^2), minimum c (d - 1); g = 1
    is an LOO side.  Any other qubit side has the Bloch minimum
    sum_k |a_k|^2 - lambda_max(sum_k a_k a_k^T), A_k = a_k0 1 + a_k . sigma."""
    d = stack.shape[-1]
    g = coords[:-1].T @ coords[:-1]
    is_loo = bool(np.abs(g - np.eye(d * d)).max() <= ORTHONORMALITY_ATOL)
    block = g[:-1, :-1]
    c = round(float(np.trace(block)) / max(len(block), 1), 10)
    if np.abs(block - c * np.eye(len(block))).max(initial=0.0) <= ORTHONORMALITY_ATOL * max(c, 1):
        return c * (d - 1), is_loo
    if d == 2:
        bloch = 0.5 * np.einsum("kij,pji->kp", _nonzero(stack), _su_stack(2)).real
        m = bloch.T @ bloch
        return max(float(np.trace(m) - np.linalg.eigvalsh(m)[-1]), 0.0), is_loo
    return None, is_loo


def _minimize_variance_sum(stack, sq_sum, psi, tol=1e-12, max_iter=1000) -> float:
    """Minimize f = <sum_k A_k^2> - sum_k <A_k>^2 over pure states from ``psi``,
    all n operators of the (n, d, d) ``stack`` at once.

    f is concave in the state, so it lies below its tangent plane
    Tr(rho H) + const with H = sum_k A_k^2 - 2 sum_k <A_k> A_k; each step
    moves to the ground state of H, which lowers f unless ``psi`` already
    is that ground state (as the global minimizer is).  Stops when a step
    gains at most ``tol`` relative to max(|f|, 1).
    """
    def value(v):
        means = ((stack @ v) @ v.conj()).real
        return float((v.conj() @ sq_sum @ v).real - means @ means), means

    f, means = value(psi)
    for _ in range(max_iter):
        psi = np.linalg.eigh(sq_sum - 2.0 * np.einsum("k,kij->ij", means, stack))[1][:, 0]
        ft, means = value(psi)
        if ft >= f - tol * max(1.0, abs(f)):
            return min(f, ft)
        f = ft
    raise NumericalFailureError("variance-sum minimization did not converge", best_value=f)


def _numeric_minimum(stack: np.ndarray, seed: int, starts: int) -> float:
    """Best of ``starts`` minimizer runs from seeded Haar-random kets."""
    rng = np.random.default_rng(seed)
    sq_sum = np.einsum("kij,kjl->il", stack, stack)
    d = stack.shape[1]
    return min(_minimize_variance_sum(stack, sq_sum, random_pure_state(d, rng))
               for _ in range(starts))


def uncertainty_bound(ops, mode: str = "numeric", seed: int = 0,
                      restarts: int = 32) -> tuple[float, BoundProvenance]:
    """Certified lower bound on the pure-state minimum of sum_k Var(op_k).

    ``mode='analytic'`` uses the closed forms of ``_closed_form`` (a set whose
    traceless coordinate Gram is c 1, such as an LOO basis or the generators,
    and any qubit set); ``mode='numeric'`` runs
    ``restarts`` seeded starts of ``_minimize_variance_sum`` and
    subtracts a safety margin of 1e-6 (the result is clamped at 0, which is
    always a valid bound for a sum of variances).
    """
    ops = list(ops)
    if not ops:
        raise ParameterRangeError("need at least one observable")
    stack = hermitian_stack(ops)
    coords = _coords(stack, "ops")
    if mode == "analytic":
        exact, _ = _closed_form(stack, coords)
        if exact is None:
            raise ParameterRangeError(
                "no closed form for this set; use mode='numeric'")
        return exact, BoundProvenance("analytic")
    if mode != "numeric":
        raise ParameterRangeError(f"mode must be 'analytic' or 'numeric', got {mode!r}")
    if restarts < 1:
        raise ParameterRangeError(f"restarts must be >= 1, got {restarts}")
    bound = max(_numeric_minimum(stack, int(seed), restarts) - SAFETY_MARGIN, 0.0)
    return bound, BoundProvenance("numeric", seed=int(seed), restarts=restarts, tolerance=1e-12)


OBS_BUILDERS = {
    "pauli_loo_pair": "singlet-tuned qubit LOO pair, bounds 1/1",
    "loo_pair": "canonical full LOO pair (params: dim_a, dim_b, pairing)",
    "su_pair": "generator pair (params: dim_a, dim_b, pairing)",
    "schmidt_loo_pair": "state-adapted Schmidt operator pair (read from each state's SVD)",
}


def _parse_op_list(entries, where: str):
    if not isinstance(entries, (list, tuple)) or not entries:
        raise SpecParseError("expected a non-empty list of matrices", field=where)
    ops = []
    for i, m in enumerate(entries):
        arr = parse_complex_matrix(m, where=f"{where}[{i}]")
        try:
            ops.append(HermitianOperator(arr))
        except ValidationError as exc:
            raise SpecParseError(str(exc), field=f"{where}[{i}]") from exc
    return ops


def observables_from_spec(spec, dims: tuple[int, int] | None = None
                          ) -> LocalObservableSet | SchmidtFrame:
    """Build a LocalObservableSet from a JSON-style spec.

    Accepts a bare builder name, ``{"builder": name, "params": {...}}``, or
    explicit matrices ``{"opsA": [...], "opsB": [...], "boundA": x,
    "boundB": y}`` whose declared bounds are checked on construction.  The
    bipartition ``dims`` supplies each dimension a dimension-generic builder's
    spec leaves out (without it, ``dim_b`` defaults to ``dim_a``), and the
    Schmidt builder needs it: the spec resolves to the ``SchmidtFrame`` of
    ``dims``.  One state's own operator set is ``schmidt_loo_pair(rho)``.
    Values follow ``states.is_number`` (``dim_a``/``dim_b``: integral); a bad
    one names its field.
    """
    if isinstance(spec, str):
        spec = {"builder": spec}
    if not isinstance(spec, dict):
        raise SpecParseError("observable spec must be a name or JSON object", field="obs")
    if "builder" in spec:
        name = spec["builder"]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SpecParseError("params must be an object", field="params")
        params = dict(params)
        if name in ("pauli_loo_pair", "schmidt_loo_pair") and params:
            raise SpecParseError(f"{name} takes no parameters", field="params")
        if name == "pauli_loo_pair":
            return pauli_loo_pair()
        if name == "schmidt_loo_pair":
            if dims is None:
                raise SpecParseError("schmidt_loo_pair requires dims", field="builder")
            return SchmidtFrame(*dims)
        if name in ("loo_pair", "su_pair"):
            if dims is not None:  # a missing dimension is the bipartition's
                params.setdefault("dim_a", dims[0])
                params.setdefault("dim_b", dims[1])
            elif "dim_a" not in params:
                raise SpecParseError(f"{name} needs dim_a (or dims)", field="params")
            for key in ("dim_a", "dim_b"):
                if key in params:  # the range random_separable declares; sets grow as d^4
                    params[key] = spec_integer(params[key], f"params.{key}", 2, 16)
            try:
                return loo_pair(**params) if name == "loo_pair" else su_pair(**params)
            except TypeError as exc:
                raise SpecParseError(str(exc), field="params") from exc
        raise SpecParseError(f"unknown builder {name!r}", field="builder")
    if "opsA" in spec or "opsB" in spec:
        for key in ("opsA", "opsB", "boundA", "boundB"):
            if key not in spec:
                raise SpecParseError(f"missing key {key!r}", field=key)
        ops_a = _parse_op_list(spec["opsA"], "opsA")
        ops_b = _parse_op_list(spec["opsB"], "opsB")
        return LocalObservableSet(ops_a, ops_b, spec_number(spec["boundA"], "boundA"),
                                  spec_number(spec["boundB"], "boundB"),
                                  BoundProvenance("declared"))
    raise SpecParseError("observable spec needs 'builder' or explicit opsA/opsB", field="obs")
