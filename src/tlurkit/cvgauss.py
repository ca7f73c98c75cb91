"""Two-mode Gaussian states and quadrature-variance separability tests.

Moment conventions: quadrature ordering (x1, p1, x2, p2), commutators
[x_j, p_j'] = i delta_jj', covariance matrix of symmetrized second moments
with vacuum variance 1/2.  In these units each physical mode obeys
Var(x_j) + Var(p_j) >= 1, and the separable bound for the combinations
u = |a| x1 + x2/a, v = |a| p1 - p2/a reads a^2 + 1/a^2.  Means are carried
for completeness but no criterion here depends on them.

The two-mode squeezed vacuum builder uses the phase with
Var(x1 + x2) = Var(p1 - p2) = exp(-2r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterRangeError, SpecParseError, UnphysicalStateError, ValidationError
from .linops import non_hermitian
from .report import CriterionReport
from .states import integer_argument, number_argument, spec_array, spec_number

__all__ = [
    "GaussianState", "vacuum", "tmsv", "thermal", "displaced",
    "combo_variance", "mode_uncertainty_sum", "u_coeffs", "v_coeffs",
    "eval_duan", "eval_corollary2", "random_separable_gaussian",
    "gaussian_from_spec",
]

PHYSICALITY_TOL = 1e-9

# symplectic form for (x1, p1, x2, p2)
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


@dataclass(frozen=True)
class GaussianState:
    """Two-mode Gaussian state: 4 means and a 4x4 covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise UnphysicalStateError(
                f"need mean of length 4 and 4x4 cov, got {mean.shape} and {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise UnphysicalStateError("non-finite moments")
        # as Python floats, a sum past the float range is inf with no numpy warning
        sums = [float(cov[i, i]) + float(cov[i + 1, i + 1]) for i in (0, 2)]
        if not all(map(math.isfinite, sums)):
            raise UnphysicalStateError(
                f"mode sums Var(x)+Var(p) = {sums} are not finite")
        if non_hermitian(cov):
            raise UnphysicalStateError("covariance matrix is not symmetric")
        herm = cov + 0.5j * OMEGA
        if np.linalg.eigvalsh(herm).min() < -PHYSICALITY_TOL:
            raise UnphysicalStateError(
                "covariance matrix violates the uncertainty principle")
        for mode, s in enumerate(sums, 1):
            if s < 1.0 - PHYSICALITY_TOL:
                raise UnphysicalStateError(
                    f"mode {mode} has Var(x)+Var(p) = {s} < 1")
        mean = mean.copy(); mean.setflags(write=False)
        cov = cov.copy(); cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def vacuum() -> GaussianState:
    return GaussianState(np.zeros(4), 0.5 * np.eye(4))


# |r| up to which exp(2r), and so cosh(2r) and sinh(2r), stay finite floats
_TMSV_R_MAX = math.log(np.finfo(float).max) / 2.0


def tmsv(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with Var(x1+x2) = Var(p1-p2) = exp(-2r)."""
    r = number_argument(r, "r")
    if not abs(r) <= _TMSV_R_MAX:
        raise ParameterRangeError(
            f"r must satisfy |r| <= {_TMSV_R_MAX:.6g}, where cosh(2r) stays finite, got {r}")
    c, s = np.cosh(2.0 * r) / 2.0, np.sinh(2.0 * r) / 2.0
    cov = np.array([
        [c, 0.0, -s, 0.0],
        [0.0, c, 0.0, s],
        [-s, 0.0, c, 0.0],
        [0.0, s, 0.0, c],
    ])
    return GaussianState(np.zeros(4), cov)


def thermal(nbar) -> GaussianState:
    """Product of thermal modes; ``nbar`` is one value for both modes or a pair."""
    pair = (nbar, nbar) if np.isscalar(nbar) else tuple(nbar)
    if len(pair) != 2:
        raise ParameterRangeError("thermal takes one occupation or a pair")
    pair = tuple(number_argument(n, "nbar") for n in pair)
    if any(n < 0 for n in pair):
        raise ParameterRangeError(f"mean occupations must be >= 0, got {pair}")
    diag = [(2.0 * pair[0] + 1.0) / 2.0] * 2 + [(2.0 * pair[1] + 1.0) / 2.0] * 2
    return GaussianState(np.zeros(4), np.diag(diag))


def displaced(state: GaussianState, mean) -> GaussianState:
    """Same covariance, shifted means (criteria are displacement-invariant)."""
    return GaussianState(np.asarray(mean, dtype=float), state.cov)


def combo_variance(state: GaussianState, coeffs) -> float:
    """Variance of the linear quadrature combination c . (x1,p1,x2,p2)."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.shape != (4,):
        raise ParameterRangeError(f"need 4 coefficients, got shape {c.shape}")
    return float(c @ state.cov @ c)


def mode_uncertainty_sum(state: GaussianState, mode: int) -> float:
    """Var(x_j) + Var(p_j) for mode j in {1, 2}."""
    if mode not in (1, 2):
        raise ParameterRangeError(f"mode must be 1 or 2, got {mode}")
    i = 2 * (mode - 1)
    return float(state.cov[i, i] + state.cov[i + 1, i + 1])


def u_coeffs(a: float) -> np.ndarray:
    return np.array([abs(a), 0.0, 1.0 / a, 0.0])


def v_coeffs(a: float) -> np.ndarray:
    return np.array([0.0, abs(a), 0.0, -1.0 / a])


def _check_a(a: float) -> float:
    """``a`` as a float whose a^2 and 1/a^2 are finite and positive."""
    a = number_argument(a, "a")
    aa = a * a
    if not (math.isfinite(aa) and aa > 0.0 and math.isfinite(1.0 / aa)):
        raise ParameterRangeError(
            f"a must have a*a and 1/(a*a) finite and positive, got a = {a}")
    return a


def _quadrature_variances(state: GaussianState, a: float) -> tuple[float, float]:
    """Var(u), Var(v); an overflow gives inf or nan, which ``_report`` rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        return combo_variance(state, u_coeffs(a)), combo_variance(state, v_coeffs(a))


def _report(criterion: str, a: float, lhs: float, rhs: float,
            components: dict) -> CriterionReport:
    """The report, unless lhs, rhs or the margin overflowed for this a and state."""
    margin = rhs - lhs
    if not all(map(math.isfinite, (lhs, rhs, margin))):
        raise ValidationError(
            f"{criterion} at a = {a}: lhs {lhs}, rhs {rhs} and margin {margin} are not "
            f"all finite; a or the covariance is too large")
    return CriterionReport(criterion, lhs, rhs, margin, components)


def eval_duan(state: GaussianState, a: float) -> CriterionReport:
    """Var(u) + Var(v) >= a^2 + 1/a^2 for separable states."""
    a = _check_a(a)
    var_u, var_v = _quadrature_variances(state, a)
    lhs = var_u + var_v
    rhs = a * a + 1.0 / (a * a)
    return _report("duan", a, lhs, rhs, {"var_u": var_u, "var_v": var_v, "a": a})


def eval_corollary2(state: GaussianState, a: float) -> CriterionReport:
    """Tightened bound a^2 + 1/a^2 + M^2 with
    M = |a| sqrt(S1 - 1) - sqrt(S2 - 1)/|a|, S_j = Var(x_j) + Var(p_j).

    In closed form the margin is -2 sqrt((S1 - 1)(S2 - 1)) - 2 sign(a) c with
    c = Cov(x1, x2) - Cov(p1, p2): the a^2 and 1/a^2 terms of Var(u) + Var(v)
    cancel against those of the bound, so ``a`` acts only through its sign.
    It is Duan's margin at the best |a| = ((S2 - 1)/(S1 - 1))^(1/4)."""
    a = _check_a(a)
    var_u, var_v = _quadrature_variances(state, a)
    lhs = var_u + var_v
    s1 = mode_uncertainty_sum(state, 1)
    s2 = mode_uncertainty_sum(state, 2)
    # GaussianState rejects S_j < 1 beyond PHYSICALITY_TOL; clip the rest
    m = abs(a) * math.sqrt(max(s1 - 1.0, 0.0)) - math.sqrt(max(s2 - 1.0, 0.0)) / abs(a)
    rhs = a * a + 1.0 / (a * a) + m * m
    return _report("corollary2", a, lhs, rhs,
                   {"var_u": var_u, "var_v": var_v, "a": a,
                    "mode1_sum": s1, "mode2_sum": s2, "M": m})


def random_separable_gaussian(seed: int) -> GaussianState:
    """Classically correlated product state: random squeezed thermal modes
    plus a random positive-semidefinite displacement covariance.

    Gaussian-distributed displacements of a product state leave the ensemble
    Gaussian and separable while adding an arbitrary PSD term to the
    covariance matrix.
    """
    rng = np.random.default_rng(integer_argument(seed, "seed"))
    blocks = []
    for _ in range(2):
        theta = rng.uniform(0.0, np.pi)
        s = rng.uniform(0.0, 0.8)
        nbar = rng.uniform(0.0, 1.5)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        core = np.diag([np.exp(2.0 * s), np.exp(-2.0 * s)])
        blocks.append((2.0 * nbar + 1.0) / 2.0 * rot @ core @ rot.T)
    cov = np.zeros((4, 4))
    cov[:2, :2], cov[2:, 2:] = blocks
    l = rng.normal(scale=0.5, size=(4, 4))
    cov = cov + l @ l.T
    mean = rng.normal(scale=1.0, size=4)
    return GaussianState(mean, cov)


def gaussian_from_spec(spec: dict) -> GaussianState:
    """Build a Gaussian state from a JSON-style spec.

    Builders: ``{"vacuum": {}}``, ``{"tmsv": r}``, ``{"thermal": nbar_or_pair}``;
    or raw moments ``{"mean": [...4], "cov": [[...]x4]}``.  Any builder spec
    may carry an optional ``"mean"`` displacement; a spec naming two of the
    builders and ``cov`` is ambiguous.  Values follow ``states.is_number``; a
    bad one names its field.
    """
    if not isinstance(spec, dict):
        raise SpecParseError("cv state spec must be a JSON object", field="state")
    builders = [k for k in ("vacuum", "tmsv", "thermal", "cov") if k in spec]
    if len(builders) > 1:
        raise SpecParseError(f"ambiguous builders {builders}", field="state")
    if "tmsv" in spec:
        state = tmsv(spec_number(spec["tmsv"], "tmsv"))
    elif "thermal" in spec:
        nbar = spec["thermal"]
        state = thermal(spec_array(nbar, (2,), "thermal") if isinstance(nbar, (list, tuple))
                        else spec_number(nbar, "thermal"))
    elif "vacuum" in spec:
        state = vacuum()
    elif "cov" in spec:
        state = GaussianState(np.zeros(4), spec_array(spec["cov"], (4, 4), "cov"))
    else:
        raise SpecParseError("cv state spec needs a builder or 'cov'", field="state")
    if "mean" in spec:
        state = displaced(state, spec_array(spec["mean"], (4,), "mean"))
    return state
