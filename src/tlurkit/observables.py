"""Local observable sets and their certified sum-uncertainty bounds.

A ``LocalObservableSet`` pairs equal-length lists {A_k} on subsystem A and
{B_k} on subsystem B with lower bounds ``bound_a <= min_psi sum_k Var(A_k)``
and likewise for B, the minimum running over pure states (the variance sum
is concave in the state, so pure states attain the minimum).  Sets and LOO
bases carry their operators as validated (n, d, d) stacks, built and checked
as arrays, together with the stacks' squares; every variance criterion reads
them through the one moment kernel of ``criteria``.

Closed-form bounds used by the builders:

* a complete set of local orthogonal observables (LOO: d^2 Hermitian
  operators with Tr(G_k G_l) = delta_kl) has sum-variance d - Tr(rho^2),
  hence bound d - 1;
* the d^2-1 generators normalized to Tr(g_i g_j) = 2 delta_ij have constant
  sum <g_k^2> = 2(d^2-1)/d and sum <g_k>^2 = 2(Tr rho^2 - 1/d), hence
  bound 2(d-1).

Every constructed set has both bounds checked.  A side whose nonzero
operators form one of the two sets above, up to signs (a Hilbert-Schmidt
Gram-matrix test), is held to that exact minimum; every builder's sets are
of this kind.  Any other side, such as declared ``opsA``/``opsB`` matrices,
must not beat 64 seeded random pure states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateDecompositionError,
    DimensionMismatchError,
    InvalidBoundError,
    NumericalFailureError,
    ParameterRangeError,
    SpecParseError,
    ValidationError,
)
from .linops import DensityMatrix, HermitianOperator, as_array, hermitian_stack, realign
from .states import parse_complex_matrix, random_pure_state

__all__ = [
    "BoundProvenance", "LocalObservableSet", "LooBasis",
    "su_generators", "loo_basis", "pauli_loo_pair", "loo_pair", "su_pair",
    "operator_schmidt", "schmidt_loo_pair", "uncertainty_bound",
    "observables_from_spec", "spec_requires_state", "OBS_BUILDERS",
]

SAFETY_MARGIN = 1e-6
ORTHONORMALITY_ATOL = 1e-10
SYMMETRIZATION_ATOL = 1e-8
_SANITY_SEED = 1905
_SANITY_SAMPLES = 64


def _gram(stack: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix Tr(a_i^dagger a_j) of a stack of operators."""
    v = stack.reshape(len(stack), -1)
    return v.conj() @ v.T


def _is_complete_loo(stack: np.ndarray) -> bool:
    """True for d^2 operators that are Hilbert-Schmidt orthonormal."""
    d = stack.shape[1]
    return (len(stack) == d * d
            and np.abs(_gram(stack) - np.eye(d * d)).max() <= ORTHONORMALITY_ATOL)


def _nonzero(stack: np.ndarray) -> np.ndarray:
    """The operators of a stack with nonzero Frobenius norm (drops zero padding)."""
    return stack[np.linalg.norm(stack.reshape(len(stack), -1), axis=1) > 1e-12]


def _zero_pad(stack: np.ndarray, n: int) -> np.ndarray:
    """Append zero operators up to length n."""
    if len(stack) == n:
        return stack
    d = stack.shape[1]
    return np.concatenate([stack, np.zeros((n - len(stack), d, d), dtype=complex)])


def _squares(stack: np.ndarray) -> np.ndarray:
    sq = stack @ stack
    sq.setflags(write=False)
    return sq


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


def _variance_sum_pure(psi: np.ndarray, ops: list[np.ndarray], sq_sum: np.ndarray) -> float:
    val = (psi.conj() @ sq_sum @ psi).real
    for a in ops:
        val -= (psi.conj() @ a @ psi).real ** 2
    return float(val)


@dataclass(frozen=True)
class LocalObservableSet:
    """Paired local observables with certified sum-uncertainty bounds.

    ``stack_a`` (n, d_A, d_A) and ``stack_b`` (n, d_B, d_B) are the operators
    A_k and B_k, given as ``HermitianOperator``s, matrices or arrays and kept
    as validated read-only stacks; ``sq_a``/``sq_b`` hold their squares.  The
    criteria read the stacks through one moment kernel; ``ops_a``/``ops_b``
    give the operators as ``HermitianOperator`` tuples.
    """

    stack_a: np.ndarray
    stack_b: np.ndarray
    bound_a: float
    bound_b: float
    provenance: BoundProvenance
    sq_a: np.ndarray = field(init=False, repr=False, compare=False)
    sq_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.stack_a) != len(self.stack_b) or not len(self.stack_a):
            raise ValidationError("ops_a and ops_b must be non-empty and of equal length")
        a, b = hermitian_stack(self.stack_a), hermitian_stack(self.stack_b)
        object.__setattr__(self, "stack_a", a)
        object.__setattr__(self, "stack_b", b)
        object.__setattr__(self, "sq_a", _squares(a))
        object.__setattr__(self, "sq_b", _squares(b))
        if not (np.isfinite(self.bound_a) and np.isfinite(self.bound_b)):
            raise ValidationError("bounds must be finite")
        if self.bound_a < 0 or self.bound_b < 0:
            raise ValidationError("bounds must be nonnegative")
        rng = None  # one generator for both sides, made only if a side is sampled
        for side, stack, sq, bound in (("A", a, self.sq_a, self.bound_a),
                                       ("B", b, self.sq_b, self.bound_b)):
            exact = _classify_analytic(stack)
            if exact is not None:
                if bound > exact + 1e-8:
                    raise InvalidBoundError(
                        f"declared bound {bound} on side {side} exceeds the exact "
                        f"pure-state minimum {exact} of its variance sum")
                continue
            if rng is None:
                rng = np.random.default_rng(_SANITY_SEED)
            sq_sum = sq.sum(axis=0)
            d = stack.shape[1]
            best = min(_variance_sum_pure(random_pure_state(d, rng), stack, sq_sum)
                       for _ in range(_SANITY_SAMPLES))
            if bound > best + 1e-8:
                raise InvalidBoundError(
                    f"declared bound {bound} on side {side} beaten by a sampled "
                    f"pure state with variance sum {best}")

    @cached_property
    def ops_a(self) -> tuple[HermitianOperator, ...]:
        return tuple(HermitianOperator(m) for m in self.stack_a)

    @cached_property
    def ops_b(self) -> tuple[HermitianOperator, ...]:
        return tuple(HermitianOperator(m) for m in self.stack_b)

    @property
    def n(self) -> int:
        return len(self.stack_a)

    @property
    def dim_a(self) -> int:
        return self.stack_a.shape[1]

    @property
    def dim_b(self) -> int:
        return self.stack_b.shape[1]


@dataclass(frozen=True)
class LooBasis:
    """A complete Hilbert-Schmidt orthonormal basis of Hermitian operators.

    ``stack`` (d^2, d, d) holds the operators, given as ``HermitianOperator``s,
    matrices or an array and kept as a validated read-only stack; ``sq`` holds
    their squares and ``ops`` gives them as ``HermitianOperator``s.
    """

    stack: np.ndarray
    sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.stack):
            raise ValidationError("empty operator list")
        s = hermitian_stack(self.stack)
        d = s.shape[1]
        if len(s) != d * d:
            raise ValidationError(f"need {d * d} operators for dimension {d}, got {len(s)}")
        if not _is_complete_loo(s):
            raise ValidationError("operators are not Hilbert-Schmidt orthonormal")
        object.__setattr__(self, "stack", s)
        object.__setattr__(self, "sq", _squares(s))

    @cached_property
    def ops(self) -> tuple[HermitianOperator, ...]:
        return tuple(HermitianOperator(m) for m in self.stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]


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


def loo_basis(d: int) -> LooBasis:
    """Canonical LOO basis: normalized generators plus identity/sqrt(d) last."""
    return LooBasis(_loo_stack(d))


@lru_cache(maxsize=None)
def _loo_vec_matrix(d: int) -> np.ndarray:
    """Unitary whose columns are row-major vec(G_k) of the canonical LOO basis."""
    return np.ascontiguousarray(_loo_stack(d).reshape(d * d, d * d).T)


def pauli_loo_pair() -> LocalObservableSet:
    """Qubit pair tuned to the singlet: A_k = G_k^A, B_k = -G_k^B with
    G^A = (-x, -y, -z, 1)/sqrt(2) and G^B = (x, y, z, 1)/sqrt(2).

    The four joint operators A_k (x) 1 + 1 (x) B_k all annihilate the
    singlet, so its joint variance sum is zero against bounds of 1 + 1.
    """
    gx, gy, gz, gi = _loo_stack(2)
    return LocalObservableSet(np.stack([-gx, -gy, -gz, gi]), -_loo_stack(2), 1.0, 1.0,
                              BoundProvenance("analytic"))


def _paired(stack_a, stack_b, pairing: str):
    if pairing == "conjugate":
        stack_b = stack_b.conj()
    elif pairing != "direct":
        raise ParameterRangeError(f"pairing must be 'conjugate' or 'direct', got {pairing!r}")
    n = max(len(stack_a), len(stack_b))
    return _zero_pad(stack_a, n), _zero_pad(-stack_b, n)


def loo_pair(dim_a: int, dim_b: int | None = None, pairing: str = "conjugate") -> LocalObservableSet:
    """Canonical full-LOO pair A_k = G_k, B_k = -G_k* (or -G_k for 'direct').

    The conjugate pairing annihilates the maximally entangled state.  Sides
    of unequal dimension are zero-padded to a common length; bounds are
    d_a - 1 and d_b - 1.
    """
    dim_b = dim_a if dim_b is None else dim_b
    ops_a, ops_b = _paired(_loo_stack(dim_a), _loo_stack(dim_b), pairing)
    return LocalObservableSet(ops_a, ops_b, dim_a - 1.0, dim_b - 1.0,
                              BoundProvenance("analytic"))


def su_pair(dim_a: int, dim_b: int | None = None, pairing: str = "conjugate",
            bound_mode: str = "analytic", seed: int = 0, restarts: int = 32) -> LocalObservableSet:
    """Generator pair A_k = g_k, B_k = -g_k* (or -g_k), bounds 2(d-1)."""
    dim_b = dim_a if dim_b is None else dim_b
    ops_a, ops_b = _paired(_su_stack(dim_a), _su_stack(dim_b), pairing)
    if bound_mode == "analytic":
        ba, bb = 2.0 * (dim_a - 1), 2.0 * (dim_b - 1)
        prov = BoundProvenance("analytic")
    elif bound_mode == "numeric":
        ba, prov = uncertainty_bound(ops_a, mode="numeric", seed=seed, restarts=restarts)
        bb, _ = uncertainty_bound(ops_b, mode="numeric", seed=seed, restarts=restarts)
    else:
        raise ParameterRangeError(f"bound_mode must be 'analytic' or 'numeric', got {bound_mode!r}")
    return LocalObservableSet(ops_a, ops_b, ba, bb, prov)


def operator_schmidt(rho: DensityMatrix):
    """Hermitian operator Schmidt decomposition rho = sum_k s_k G_k^A (x) G_k^B.

    The realigned matrix is expressed in the canonical LOO product basis,
    where a Hermitian state has a real coefficient matrix; its real SVD then
    yields nonnegative coefficients with orthonormal *Hermitian* factors on
    both sides (real orthogonal mixes of Hermitian operators stay Hermitian),
    and the full SVD factors already complete both LOO bases.

    Returns ``(coeffs, ops_a, ops_b)`` with coeffs descending of length
    min(d_a^2, d_b^2) and the complete bases as (d_a^2, d_a, d_a) and
    (d_b^2, d_b, d_b) arrays.
    """
    da, db = rho.dim_a, rho.dim_b
    wa, wb = _loo_vec_matrix(da), _loo_vec_matrix(db)
    coeff = wa.conj().T @ realign(rho) @ wb.conj()
    if np.abs(coeff.imag).max() > SYMMETRIZATION_ATOL:
        raise DegenerateDecompositionError(
            f"coefficient matrix has imaginary residual {np.abs(coeff.imag).max():.2e}")
    o1, s, o2t = np.linalg.svd(coeff.real)
    ops_a = (wa @ o1).T.reshape(da * da, da, da)
    ops_b = (wb @ o2t.T).T.reshape(db * db, db, db)
    resid = max(np.abs(m - m.conj().transpose(0, 2, 1)).max() for m in (ops_a, ops_b))
    if resid > SYMMETRIZATION_ATOL:
        raise DegenerateDecompositionError(
            f"Schmidt factors are non-Hermitian with residual {resid:.2e}")
    return s, ops_a, ops_b


def schmidt_loo_pair(rho: DensityMatrix) -> LocalObservableSet:
    """Observables adapted to ``rho``: its Schmidt operators, paired with signs
    A_k = G_k^A, B_k = -G_k^B, extended to complete LOO bases.

    With these observables the joint variance sum equals
    d_a + d_b - 2 sum_k s_k - sum_k (<G_k^A> - <G_k^B>)^2, so a violation is
    at least as easy as a realignment (CCNR) violation.
    """
    _, ops_a, ops_b = operator_schmidt(rho)
    n = max(len(ops_a), len(ops_b))
    return LocalObservableSet(_zero_pad(ops_a, n), _zero_pad(-ops_b, n),
                              rho.dim_a - 1.0, rho.dim_b - 1.0,
                              BoundProvenance("analytic"))


def _classify_analytic(stack: np.ndarray) -> float | None:
    """Recognize full LOO sets (-> d-1) and generator sets (-> 2(d-1))."""
    nonzero = _nonzero(stack)
    if not len(nonzero):
        return 0.0
    d = stack.shape[1]
    if _is_complete_loo(nonzero):
        return float(d - 1)
    n = len(nonzero)
    if (n == d * d - 1
            and np.abs(np.trace(nonzero, axis1=1, axis2=2)).max() <= 1e-10
            and np.abs(_gram(nonzero) - 2.0 * np.eye(n)).max() <= 2 * ORTHONORMALITY_ATOL):
        return float(2 * (d - 1))
    return None


def _minimize_variance_sum(arrays, sq, psi, tol=1e-10, max_iter=1000):
    """Projected gradient descent with step halving on the unit sphere."""
    f = _variance_sum_pure(psi, arrays, sq)
    eta = 0.5
    for _ in range(max_iter):
        means = [(psi.conj() @ a @ psi).real for a in arrays]
        h = sq - 2.0 * sum(m * a for m, a in zip(means, arrays))
        grad = h @ psi
        grad = grad - (psi.conj() @ grad).real * psi
        if np.linalg.norm(grad) <= 1e-13 * max(1.0, abs(f)):
            return f
        improved = False
        while eta > 1e-18:
            trial = psi - eta * grad
            trial = trial / np.linalg.norm(trial)
            ft = _variance_sum_pure(trial, arrays, sq)
            if ft < f:
                improvement = f - ft
                psi, f = trial, ft
                eta = min(eta * 1.5, 8.0)
                improved = True
                break
            eta *= 0.5
        if not improved:
            return f  # no descent direction at current resolution
        if improvement <= tol * max(1.0, abs(f)):
            return f
    raise NumericalFailureError("variance-sum minimization did not converge", best_value=f)


def uncertainty_bound(ops, mode: str = "numeric", seed: int = 0,
                      restarts: int = 32) -> tuple[float, BoundProvenance]:
    """Certified lower bound on the pure-state minimum of sum_k Var(op_k).

    ``mode='analytic'`` uses the closed forms for full LOO and generator
    sets; ``mode='numeric'`` runs multi-start projected gradient descent and
    subtracts a safety margin of 1e-6 (the result is clamped at 0, which is
    always a valid bound for a sum of variances).
    """
    arrays = [as_array(op) for op in ops]
    if not arrays:
        raise ParameterRangeError("need at least one observable")
    dims = {a.shape for a in arrays}
    if len(dims) != 1:
        raise DimensionMismatchError("all observables must share a dimension")
    if mode == "analytic":
        val = _classify_analytic(np.array(arrays))
        if val is None:
            raise ParameterRangeError(
                "no closed form for this set; use mode='numeric'")
        return val, BoundProvenance("analytic")
    if mode != "numeric":
        raise ParameterRangeError(f"mode must be 'analytic' or 'numeric', got {mode!r}")
    d = arrays[0].shape[0]
    sq = sum(a @ a for a in arrays)
    rng = np.random.default_rng(int(seed))
    best = np.inf
    for _ in range(restarts):
        psi = random_pure_state(d, rng)
        best = min(best, _minimize_variance_sum(arrays, sq, psi))
    bound = max(best - SAFETY_MARGIN, 0.0)
    return bound, BoundProvenance("numeric", seed=int(seed), restarts=restarts, tolerance=1e-10)


OBS_BUILDERS = {
    "pauli_loo_pair": "singlet-tuned qubit LOO pair, bounds 1/1",
    "loo_pair": "canonical full LOO pair (params: dim_a, dim_b, pairing)",
    "su_pair": "generator pair (params: dim_a, dim_b, pairing, bound_mode, seed, restarts)",
    "schmidt_loo_pair": "state-adapted Schmidt operator pair (rebuilt per state)",
}


def spec_requires_state(spec) -> bool:
    """True when the observable spec must be rebuilt from each evaluated state."""
    if isinstance(spec, str):
        return spec == "schmidt_loo_pair"
    return isinstance(spec, dict) and spec.get("builder") == "schmidt_loo_pair"


def _parse_op_list(entries, where: str, dim_hint=None):
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


def observables_from_spec(spec, state: DensityMatrix | None = None,
                          dims: tuple[int, int] | None = None,
                          default_seed: int = 0) -> LocalObservableSet:
    """Build a LocalObservableSet from a JSON-style spec.

    Accepts a bare builder name, ``{"builder": name, "params": {...}}``, or
    explicit matrices ``{"opsA": [...], "opsB": [...], "boundA": x,
    "boundB": y}`` whose declared bounds are checked on construction.  ``state``
    (or bare ``dims``) supplies default dimensions for dimension-generic
    builders; the Schmidt builder needs the state itself.
    """
    if isinstance(spec, str):
        spec = {"builder": spec}
    if not isinstance(spec, dict):
        raise SpecParseError("observable spec must be a name or JSON object", field="obs")
    if state is not None and dims is None:
        dims = (state.dim_a, state.dim_b)
    if "builder" in spec:
        name = spec["builder"]
        params = dict(spec.get("params", {}))
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
            if "dim_a" not in params:
                if dims is None:
                    raise SpecParseError(f"{name} needs dim_a (or a state)", field="params")
                params.setdefault("dim_a", dims[0])
                params.setdefault("dim_b", dims[1])
            params = {k: (int(v) if k in ("dim_a", "dim_b", "seed", "restarts") else v)
                      for k, v in params.items()}
            if name == "su_pair":
                params.setdefault("seed", int(default_seed))
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
        try:
            ba, bb = float(spec["boundA"]), float(spec["boundB"])
        except (TypeError, ValueError) as exc:
            raise SpecParseError("bounds must be numbers", field="boundA/boundB") from exc
        return LocalObservableSet(ops_a, ops_b, ba, bb, BoundProvenance("declared"))
    raise SpecParseError("observable spec needs 'builder' or explicit opsA/opsB", field="obs")
