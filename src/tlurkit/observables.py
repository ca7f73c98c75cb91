"""Local observable sets and their certified sum-uncertainty bounds.

A ``LocalObservableSet`` pairs equal-length lists {A_k} on subsystem A and
{B_k} on subsystem B with lower bounds ``bound_a <= min_psi sum_k Var(A_k)``
and likewise for B, the minimum running over pure states (the variance sum
is concave in the state, so pure states attain the minimum).  Sets carry
their operators as validated (n, d, d) stacks, built and checked as arrays,
inside the rows (vec A_k, vec A_k^2, vec 1) through which every set
criterion, the LOO witnesses included, reads them in the one moment kernel
of ``criteria``.  A set
may also hold one set per state of a ``DensityStack``, as (N, n, d, d)
stacks: ``schmidt_loo_pair`` builds such a set for a stack in one batched
SVD, and the certifier checks all N sets at once.

Closed-form bounds used by the builders:

* a complete set of local orthogonal observables (LOO: d^2 Hermitian
  operators with Tr(G_k G_l) = delta_kl) has sum-variance d - Tr(rho^2),
  hence bound d - 1;
* the d^2-1 generators normalized to Tr(g_i g_j) = 2 delta_ij have constant
  sum <g_k^2> = 2(d^2-1)/d and sum <g_k>^2 = 2(Tr rho^2 - 1/d), hence
  bound 2(d-1).

Every constructed set has both bounds checked by one certifier.  A side
whose nonzero operators form one of the two sets above, up to signs (a
Hilbert-Schmidt Gram-matrix test), is held to that exact minimum; every
builder's sets are of this kind.  The sides of N sets are held to the least
minimum over the N.  Any other qubit side is held to the exact
minimum sum_k |a_k|^2 - lambda_max(sum_k a_k a_k^T), where A_k = a_k0 1 +
a_k . sigma.  Any other side, such as declared qutrit ``opsA``/``opsB``
matrices, must not exceed the best of a few seeded starts of the minimizer
that ``uncertainty_bound(mode="numeric")`` runs.  The certifier also records
whether both sides are complete LOO bases (``is_loo_pair``): the set is then
an LOO pair A_k = G_k^A, B_k = -G_k^B, on which the LOO witnesses are
defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateDecompositionError,
    InvalidBoundError,
    NumericalFailureError,
    ParameterRangeError,
    SpecParseError,
    ValidationError,
    raise_first,
)
from .linops import (
    DensityMatrix,
    DensityStack,
    HermitianOperator,
    as_stack,
    check_hermitian,
    hermitian_stack,
    realign,
)
from .states import parse_complex_matrix, random_pure_state, spec_integer, spec_number

__all__ = [
    "BoundProvenance", "LocalObservableSet",
    "su_generators", "loo_basis", "pauli_loo_pair", "loo_pair", "su_pair",
    "operator_schmidt", "schmidt_loo_pair", "uncertainty_bound",
    "observables_from_spec", "spec_requires_state", "OBS_BUILDERS",
]

SAFETY_MARGIN = 1e-6
ORTHONORMALITY_ATOL = 1e-10
SYMMETRIZATION_ATOL = 1e-8
_CERTIFY_SEED = 1905
_CERTIFY_STARTS = 4


def _vecs(stack: np.ndarray) -> np.ndarray:
    """Row-major vec of each operator: (..., n, d, d) -> (..., n, d^2)."""
    return stack.reshape(stack.shape[:-2] + (-1,))


def _gram(stack: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix Tr(a_i^dagger a_j) of a stack of operators
    (of each stack, for N stacks)."""
    v = _vecs(stack)
    return v.conj() @ v.swapaxes(-1, -2)


def _is_complete_loo(stack: np.ndarray) -> bool:
    """True for d^2 operators that are Hilbert-Schmidt orthonormal (in each
    of N stacks)."""
    d = stack.shape[-1]
    if stack.shape[-3] != d * d:
        return False
    gram = _gram(stack)
    gram -= np.eye(d * d)
    return np.abs(gram).max() <= ORTHONORMALITY_ATOL


def _nonzero(stack: np.ndarray) -> np.ndarray:
    """The operators of a stack with nonzero Frobenius norm (drops zero
    padding); of N stacks, the positions nonzero in any of them."""
    norms = np.linalg.norm(_vecs(stack), axis=-1).reshape(-1, stack.shape[-3])
    keep = norms.max(axis=0) > 1e-12
    return stack if keep.all() else stack[..., keep, :, :]


def _zero_pad(stack: np.ndarray, n: int) -> np.ndarray:
    """Append zero operators up to length n (to each of N stacks)."""
    if stack.shape[-3] == n:
        return stack
    pad = np.zeros(stack.shape[:-3] + (n - stack.shape[-3],) + stack.shape[-2:], dtype=complex)
    return np.concatenate([stack, pad], axis=-3)


def _moment_rows(ops) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows vec A_k, vec A_k^2, then vec 1 of operators (..., n, d, d):
    (..., 2n + 1, d^2), and the operators as a view of the first n.  The
    operators are copied into the rows and validated there, before they are
    squared."""
    ops = as_stack(ops)
    n, d = ops.shape[-3], ops.shape[-1]
    rows = np.empty(ops.shape[:-3] + (2 * n + 1, d * d), dtype=complex)
    stack = rows[..., :n, :].reshape(ops.shape)
    stack[...] = ops
    check_hermitian(stack)
    np.matmul(stack, stack, out=rows[..., n:-1, :].reshape(ops.shape))
    rows[..., -1, :] = np.eye(d).reshape(-1)
    rows.setflags(write=False)
    return rows, rows[..., :n, :].reshape(ops.shape)


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


@dataclass(frozen=True)
class LocalObservableSet:
    """Paired local observables with certified sum-uncertainty bounds.

    ``stack_a`` (n, d_A, d_A) and ``stack_b`` (n, d_B, d_B) are the operators
    A_k and B_k, given as ``HermitianOperator``s, matrices or arrays and kept
    as validated read-only stacks.  ``rows_a`` (2n + 1, d_A^2) holds vec A_k,
    vec A_k^2 and vec 1 (row-major vec), the rows the moment kernel of
    ``criteria`` applies to a state, and ``rows_b`` likewise; each stack is
    a view of its first n rows.  ``is_loo_pair`` is
    True when the certifier found the nonzero operators of both sides to be
    complete LOO bases, so that the LOO witnesses apply.

    Stacks of shape (N, n, d, d) hold one set per state of an N-state
    ``DensityStack``; the bounds then hold for every one of the N sets.
    """

    stack_a: np.ndarray
    stack_b: np.ndarray
    bound_a: float
    bound_b: float
    provenance: BoundProvenance
    rows_a: np.ndarray = field(init=False, repr=False, compare=False)
    rows_b: np.ndarray = field(init=False, repr=False, compare=False)
    is_loo_pair: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.stack_a) != len(self.stack_b) or not len(self.stack_a):
            raise ValidationError("stack_a and stack_b must be non-empty and of equal length")
        (rows_a, a), (rows_b, b) = _moment_rows(self.stack_a), _moment_rows(self.stack_b)
        if a.shape[:-2] != b.shape[:-2]:
            raise ValidationError(
                f"stack_a {a.shape[:-2]} and stack_b {b.shape[:-2]} hold different counts")
        for name, value in (("rows_a", rows_a), ("rows_b", rows_b),
                            ("stack_a", a), ("stack_b", b)):
            object.__setattr__(self, name, value)
        if not (np.isfinite(self.bound_a) and np.isfinite(self.bound_b)):
            raise ValidationError("bounds must be finite")
        if self.bound_a < 0 or self.bound_b < 0:
            raise ValidationError("bounds must be nonnegative")
        forms = []
        for side, stack, bound in (("A", a, self.bound_a), ("B", b, self.bound_b)):
            # the one certifier: an exact minimum where a closed form exists,
            # else a variance sum the minimizer reaches from fixed seeded starts
            attained, form = _classify_analytic(stack) or (
                min(_numeric_minimum(one, _CERTIFY_SEED, _CERTIFY_STARTS)
                    for one in stack.reshape((-1,) + stack.shape[-3:])), None)
            if bound > attained + 1e-8:
                raise InvalidBoundError(
                    f"declared bound {bound} on side {side} exceeds the variance "
                    f"sum {attained} that a pure state attains")
            forms.append(form)
        object.__setattr__(self, "is_loo_pair", forms == ["loo", "loo"])

    @property
    def n(self) -> int:
        return self.stack_a.shape[-3]

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
    """The operators of ``loo_basis`` as one read-only stack."""
    eye = np.eye(d, dtype=complex) / np.sqrt(d)
    return hermitian_stack(np.concatenate([_su_stack(d) / np.sqrt(2.0), eye[None]]))


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


def operator_schmidt(rho):
    """Hermitian operator Schmidt decomposition rho = sum_k s_k G_k^A (x) G_k^B.

    The realigned matrix is expressed in the canonical LOO product basis,
    where a Hermitian state has a real coefficient matrix; its real SVD then
    yields nonnegative coefficients with orthonormal *Hermitian* factors on
    both sides (real orthogonal mixes of Hermitian operators stay Hermitian),
    and the full SVD factors already complete both LOO bases.  The one check
    here is that the coefficient matrix is real: an imaginary part above
    1e-8 raises ``DegenerateDecompositionError``.  The factors are not
    checked again; a ``LocalObservableSet`` built from them checks each
    one's Hermiticity to 1e-10 times max(its max-norm, 1), and their norms
    are at most 1.

    Returns ``(coeffs, ops_a, ops_b)`` with coeffs descending of length
    min(d_a^2, d_b^2) and the complete bases as (d_a^2, d_a, d_a) and
    (d_b^2, d_b, d_b) arrays.  A ``DensityStack`` of N states is decomposed
    by one batched SVD, and each output gains a leading N axis.
    """
    da, db = rho.dim_a, rho.dim_b
    wa, wb = _loo_vec_matrix(da), _loo_vec_matrix(db)
    left = wa.conj().T @ realign(rho.states, (da, db))
    # the right factor is shared: one product over the rows of all N matrices
    coeff = (left.reshape(-1, db * db) @ wb.conj()).reshape(left.shape)
    lead = coeff.shape[:-2]
    imag = np.abs(coeff.imag)
    if (imag > SYMMETRIZATION_ATOL).any():
        imag = imag.max(axis=(-2, -1))
        raise_first(imag > SYMMETRIZATION_ATOL, DegenerateDecompositionError,
                    lambda k: f"coefficient matrix has imaginary residual "
                              f"{imag.reshape(-1)[k]:.2e}")
    o1, s, o2t = np.linalg.svd(coeff.real)
    # column k of each product is vec G_k; the factors are views of it, with
    # no copy before the set copies them into its rows
    ops_a = np.moveaxis((wa @ o1).reshape(lead + (da, da, da * da)), -1, -3)
    ops_b = np.moveaxis((wb @ o2t.swapaxes(-1, -2)).reshape(lead + (db, db, db * db)), -1, -3)
    return s, ops_a, ops_b


def schmidt_loo_pair(rho) -> LocalObservableSet:
    """Observables adapted to ``rho``: its Schmidt operators, paired with signs
    A_k = G_k^A, B_k = -G_k^B, extended to complete LOO bases.

    With these observables the joint variance sum equals
    d_a + d_b - 2 sum_k s_k - sum_k (<G_k^A> - <G_k^B>)^2, so a violation is
    at least as easy as a realignment (CCNR) violation.  For a
    ``DensityStack`` the set holds one such set per state, (N, n, d, d).
    """
    _, ops_a, ops_b = operator_schmidt(rho)
    n = max(ops_a.shape[-3], ops_b.shape[-3])
    return LocalObservableSet(_zero_pad(ops_a, n), _zero_pad(np.negative(ops_b, out=ops_b), n),
                              rho.dim_a - 1.0, rho.dim_b - 1.0,
                              BoundProvenance("analytic"))


def _classify_analytic(stack: np.ndarray) -> tuple[float, str] | None:
    """Exact pure-state minimum of sum_k Var(A_k) where a closed form exists,
    with the form that matched: "loo" for full LOO sets (-> d-1), "generators"
    for generator sets (-> 2(d-1)), "qubit" for every other qubit side
    (-> sum_k |a_k|^2 - lambda_max(sum_k a_k a_k^T) for A_k = a_k0 1 + a_k . sigma)
    and "zero" for a side of zero operators (-> 0).  For the sides of N sets,
    (N, n, d, d), a form must match all N, and the minimum is the least."""
    nonzero = _nonzero(stack)
    n, d = nonzero.shape[-3], stack.shape[-1]
    if not n:
        return 0.0, "zero"
    if _is_complete_loo(nonzero):
        return float(d - 1), "loo"
    if (n == d * d - 1
            and np.abs(np.trace(nonzero, axis1=-2, axis2=-1)).max() <= 1e-10
            and np.abs(_gram(nonzero) - 2.0 * np.eye(n)).max() <= 2 * ORTHONORMALITY_ATOL):
        return float(2 * (d - 1)), "generators"
    if d == 2:
        bloch = 0.5 * np.einsum("...kij,pji->...kp", nonzero, _su_stack(2)).real
        m = bloch.swapaxes(-1, -2) @ bloch
        least = (np.trace(m, axis1=-2, axis2=-1) - np.linalg.eigvalsh(m)[..., -1]).min()
        return max(float(least), 0.0), "qubit"
    return None


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

    ``mode='analytic'`` uses the closed forms of ``_classify_analytic`` (full
    LOO sets, generator sets, any qubit set); ``mode='numeric'`` runs
    ``restarts`` seeded starts of ``_minimize_variance_sum`` and
    subtracts a safety margin of 1e-6 (the result is clamped at 0, which is
    always a valid bound for a sum of variances).
    """
    ops = list(ops)
    if not ops:
        raise ParameterRangeError("need at least one observable")
    stack = hermitian_stack(ops)
    if mode == "analytic":
        closed = _classify_analytic(stack)
        if closed is None:
            raise ParameterRangeError(
                "no closed form for this set; use mode='numeric'")
        return closed[0], BoundProvenance("analytic")
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
    "schmidt_loo_pair": "state-adapted Schmidt operator pair (one set per state)",
}


def spec_requires_state(spec) -> bool:
    """True when the observable spec must be rebuilt from each evaluated state."""
    if isinstance(spec, str):
        return spec == "schmidt_loo_pair"
    return isinstance(spec, dict) and spec.get("builder") == "schmidt_loo_pair"


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


def observables_from_spec(spec, state: DensityMatrix | DensityStack | None = None,
                          dims: tuple[int, int] | None = None) -> LocalObservableSet:
    """Build a LocalObservableSet from a JSON-style spec.

    Accepts a bare builder name, ``{"builder": name, "params": {...}}``, or
    explicit matrices ``{"opsA": [...], "opsB": [...], "boundA": x,
    "boundB": y}`` whose declared bounds are checked on construction.  ``state``
    (or bare ``dims``) supplies each dimension a dimension-generic builder's
    spec leaves out (with neither, ``dim_b`` defaults to ``dim_a``); the
    Schmidt builder needs the state itself, and for a ``DensityStack`` builds
    one set per state.  Values follow ``states.is_number`` (``dim_a``/``dim_b``:
    integral); a bad one names its field.
    """
    if isinstance(spec, str):
        spec = {"builder": spec}
    if not isinstance(spec, dict):
        raise SpecParseError("observable spec must be a name or JSON object", field="obs")
    if state is not None and dims is None:
        dims = (state.dim_a, state.dim_b)
    if "builder" in spec:
        name = spec["builder"]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SpecParseError("params must be an object", field="params")
        params = dict(params)
        if name == "pauli_loo_pair":
            if params:
                raise SpecParseError("pauli_loo_pair takes no parameters", field="params")
            return pauli_loo_pair()
        if name == "schmidt_loo_pair":
            if state is None:
                raise SpecParseError("schmidt_loo_pair requires a state to adapt to",
                                     field="builder")
            return schmidt_loo_pair(state)
        if name in ("loo_pair", "su_pair"):
            if dims is not None:  # a missing dimension is the state's
                params.setdefault("dim_a", dims[0])
                params.setdefault("dim_b", dims[1])
            elif "dim_a" not in params:
                raise SpecParseError(f"{name} needs dim_a (or a state)", field="params")
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
