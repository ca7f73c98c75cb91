"""State families and random-state constructors.

Basis labelling: spin labels (-1, 0, +1) of a qutrit map to computational
basis indices (0, 1, 2).

Random constructors are seeded and deterministic: seeds feed
``numpy.random.Generator`` backed by PCG64, local pure states are drawn
Haar-uniformly (normalized complex normal vectors), and mixture weights are
Dirichlet(1,...,1).  Draw order is weights first, then for each term the A
factor followed by the B factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, ParameterRangeError, SpecParseError, TlurkitError
from .linops import DensityMatrix, DensityStack

__all__ = [
    "horodecki33", "white_noise_mix", "horodecki_noise", "noisy_singlet",
    "singlet", "pure_state", "random_pure_state", "random_mixed_state",
    "random_separable", "state_from_spec", "FAMILIES", "StateFamily",
]


def pure_state(vec, dim_a: int, dim_b: int) -> DensityMatrix:
    """Density matrix of a (normalized) bipartite ket."""
    v = np.asarray(vec, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if n == 0:
        raise ParameterRangeError("zero vector cannot be normalized")
    v = v / n
    return DensityMatrix(dim_a, dim_b, np.outer(v, v.conj()))


def _ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def singlet() -> DensityMatrix:
    """|psi_s> = (|01> - |10>)/sqrt(2)."""
    return DensityMatrix(2, 2, _SINGLET)


_SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
_SINGLET = np.outer(_SINGLET_KET, _SINGLET_KET)


def _product_ket(i: int, j: int) -> np.ndarray:
    return np.kron(_ket(3, i), _ket(3, j))


# the a-independent parts of horodecki33: the five product projectors and the
# maximally entangled projector
_H33_PRODUCTS = sum(np.outer(v, v) for v in (
    _product_ket(i, j) for i, j in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1)]))
_H33_EMAX = (_product_ket(0, 0) + _product_ket(1, 1) + _product_ket(2, 2)) / np.sqrt(3)
_H33_MAXENT = np.outer(_H33_EMAX, _H33_EMAX)


def _horodecki33_matrix(a: float) -> np.ndarray:
    if not 0.0 < a < 1.0:
        raise ParameterRangeError(f"a must lie in (0,1), got {a}")
    pi = np.zeros(9)
    pi[6], pi[8] = np.sqrt((1 + a) / 2), np.sqrt((1 - a) / 2)  # on |20> and |22>
    rho = a * _H33_PRODUCTS + 3 * a * _H33_MAXENT + np.outer(pi, pi)
    return rho / (1 + 8 * a)


def _noise_mixed(m: np.ndarray, p: float) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise ParameterRangeError(f"p must lie in [0,1], got {p}")
    d = len(m)
    return p * m + (1.0 - p) * np.eye(d) / d


def horodecki33(a: float) -> DensityMatrix:
    """The 3x3 bound entangled family, real symmetric, PPT for all a in (0,1).

    Weights a/(1+8a) on five product kets, 3a/(1+8a) on the maximally
    entangled projector and 1/(1+8a) on the a-dependent |Pi> projector;
    the weights sum to one exactly.
    """
    return DensityMatrix(3, 3, _horodecki33_matrix(a))


def white_noise_mix(rho: DensityMatrix, p: float) -> DensityMatrix:
    """p * rho + (1-p) * identity / (dim_a dim_b)."""
    return DensityMatrix(rho.dim_a, rho.dim_b, _noise_mixed(np.asarray(rho.matrix), p))


def horodecki_noise(a: float, p: float) -> DensityMatrix:
    """White-noise mixture of the 3x3 bound entangled state, validated once."""
    return DensityMatrix(3, 3, _noise_mixed(_horodecki33_matrix(a), p))


_NOISY_SINGLET_SEP = np.diag([2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0])


def _noisy_singlet_matrix(p: float) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise ParameterRangeError(f"p must lie in [0,1], got {p}")
    return p * _SINGLET + (1.0 - p) * _NOISY_SINGLET_SEP


def noisy_singlet(p: float) -> DensityMatrix:
    """p |psi_s><psi_s| + (1-p) (2/3 |00><00| + 1/3 |01><01|); entangled for all p > 0."""
    return DensityMatrix(2, 2, _noisy_singlet_matrix(p))


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ket: normalized complex standard-normal vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_mixed_state(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full- or fixed-rank density matrix (Wishart-style)."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _random_separable_matrix(da: int, db: int, n_terms: int, seed: int) -> np.ndarray:
    if n_terms < 1:
        raise ParameterRangeError(f"n_terms must be >= 1, got {n_terms}")
    rng = np.random.default_rng(int(seed))
    weights = rng.dirichlet(np.ones(n_terms)) if n_terms > 1 else np.ones(1)
    rho = np.zeros((da * db, da * db), dtype=complex)
    for w in weights:
        va = random_pure_state(da, rng)
        vb = random_pure_state(db, rng)
        rho += w * np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
    return rho


def random_separable(dims: tuple[int, int], n_terms: int, seed: int) -> DensityMatrix:
    """Convex mixture of ``n_terms`` random pure product states."""
    da, db = int(dims[0]), int(dims[1])
    return DensityMatrix(da, db, _random_separable_matrix(da, db, n_terms, seed))


@dataclass(frozen=True)
class StateFamily:
    """A named, parameterized family of states for scans and the CLI.

    ``matrix`` maps parameters to the state's unvalidated density matrix;
    ``instantiate`` validates one, ``stack`` a stack of them in one pass.
    """

    name: str
    dims: tuple[int, int]
    params: dict[str, tuple[float, float]]  # name -> inclusive (lo, hi); int bounds: integral
    matrix: Callable[..., np.ndarray]
    description: str = ""
    defaults: dict[str, float] = field(default_factory=dict)

    def check_params(self, params: dict) -> None:
        """Reject unknown parameters and values outside the declared inclusive
        ranges; a parameter whose declared bounds are both ``int`` must take an
        integral value (``2`` and ``2.0``, not ``2.5``).  A value must be a
        real number: a bool or a string names its parameter in the error."""
        if not params.keys() <= self.params.keys():
            unknown = sorted(params.keys() - self.params.keys())
            raise ParameterRangeError(f"unknown parameter(s) {unknown} for family '{self.name}'")
        for name, value in params.items():
            if not is_number(value):
                raise ParameterRangeError(
                    f"{name} must be a number for family '{self.name}', got {value!r}")
            lo, hi = self.params[name]
            if not lo <= value <= hi:
                raise ParameterRangeError(
                    f"{name} must lie in [{lo}, {hi}] for family '{self.name}', "
                    f"got {value}")
            if isinstance(lo, int) and isinstance(hi, int) and value != int(value):
                raise ParameterRangeError(
                    f"{name} must be an integer for family '{self.name}', got {value}")

    def _merged(self, params: dict) -> dict:
        """``params`` over the defaults, checked and complete."""
        merged = {**self.defaults, **params}
        self.check_params(merged)
        missing = set(self.params) - set(merged)
        if missing:
            raise ParameterRangeError(
                f"missing parameter(s) {sorted(missing)} for family '{self.name}'")
        return merged

    def instantiate(self, **params) -> DensityMatrix:
        merged = self._merged(params)
        return DensityMatrix(*self.dims_for(merged), self.matrix(**merged))

    def stack(self, points: list[dict]) -> DensityStack:
        """The states at ``points`` (parameter dicts, all of one bipartition),
        validated in one pass.  A failure names the offending point's index
        in ``error.state``."""
        dims = self.dims_for(points[0] if points else None)
        mats = []
        for k, params in enumerate(points):
            try:
                merged = self._merged(params)
                if self.dims_for(merged) != dims:
                    raise DimensionMismatchError(
                        f"a stack holds one bipartition: {self.dims_for(merged)} vs {dims}")
                mats.append(self.matrix(**merged))
            except TlurkitError as exc:
                exc.state = k
                raise
        return DensityStack(*dims, np.array(mats))

    def dims_for(self, params: dict | None = None) -> tuple[int, int]:
        """Local dimensions: ``dim_a``/``dim_b`` when the family takes them."""
        if not {"dim_a", "dim_b"} <= self.params.keys():
            return self.dims
        merged = {**self.defaults, **(params or {})}
        return (int(merged["dim_a"]), int(merged["dim_b"]))


FAMILIES: dict[str, StateFamily] = {}


def _register(fam: StateFamily) -> None:
    FAMILIES[fam.name] = fam


_register(StateFamily(
    name="horodecki",
    dims=(3, 3),
    params={"a": (0.0, 1.0)},
    matrix=_horodecki33_matrix,
    description="3x3 bound entangled family (PPT, entangled), a in (0,1)",
))
_register(StateFamily(
    name="horodecki_noise",
    dims=(3, 3),
    params={"a": (0.0, 1.0), "p": (0.0, 1.0)},
    matrix=lambda a, p: _noise_mixed(_horodecki33_matrix(a), p),
    description="white-noise mixture p*horodecki(a) + (1-p)*I/9",
))
_register(StateFamily(
    name="noisy_singlet",
    dims=(2, 2),
    params={"p": (0.0, 1.0)},
    matrix=_noisy_singlet_matrix,
    description="p*singlet + (1-p)*(2/3|00><00| + 1/3|01><01|)",
))
_register(StateFamily(
    name="random_separable",
    dims=(2, 2),
    params={"dim_a": (2, 16), "dim_b": (2, 16), "n_terms": (1, 1024), "seed": (0, 2**31)},
    matrix=lambda dim_a, dim_b, n_terms, seed: _random_separable_matrix(
        int(dim_a), int(dim_b), int(n_terms), int(seed)),
    description="seeded random mixture of pure product states",
    defaults={"dim_a": 2, "dim_b": 2, "n_terms": 4, "seed": 0},
))


_REAL = (int, float, np.integer, np.floating)


def is_number(value) -> bool:
    """The one rule for a number in a spec: an int or a float, numpy integer
    and floating scalars too, never a bool (an int subclass) or a string."""
    return isinstance(value, _REAL) and not isinstance(value, bool)


def spec_number(value, where: str) -> float:
    """A spec number as a float, else ``SpecParseError`` naming ``where``."""
    if is_number(value):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise SpecParseError(f"must be a number, got {value!r}", field=where)


def spec_integer(value, where: str, lo: int, hi: float) -> int:
    """A spec number with an integral value (``2`` or ``2.0``, not ``2.5``)
    in [lo, hi]."""
    number = spec_number(value, where)
    if not (number.is_integer() and lo <= number <= hi):
        raise SpecParseError(f"must be an integer in [{lo}, {hi}], got {value!r}", field=where)
    return int(number)


def spec_array(value, shape: tuple[int, ...], where: str):
    """Nested lists of spec numbers of the given shape, as floats."""
    if not shape:
        return spec_number(value, where)
    if not isinstance(value, (list, tuple)) or len(value) != shape[0]:
        raise SpecParseError(f"must be a list of {shape[0]}, got {value!r}", field=where)
    return [spec_array(v, shape[1:], where) for v in value]


def _parse_complex_entry(entry, where: str) -> complex:
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(spec_number(entry[0], where), spec_number(entry[1], where))
    return complex(spec_number(entry, where))


def parse_complex_matrix(rows, where: str = "matrix") -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise SpecParseError("expected a non-empty list of rows", field=where)
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != len(rows):
            raise SpecParseError("matrix must be square", field=f"{where}[{i}]")
        parsed.append([_parse_complex_entry(e, f"{where}[{i}][{j}]")
                       for j, e in enumerate(row)])
    return np.array(parsed, dtype=complex)


def state_from_spec(spec: dict) -> DensityMatrix:
    """Build a state from a JSON-style spec.

    Either ``{"family": name, "params": {...}}`` or
    ``{"dims": [dim_a, dim_b], "matrix": [[[re, im], ...], ...]}``.  Values
    follow ``is_number`` (``dims``: integral); a bad one names its field.
    """
    if not isinstance(spec, dict):
        raise SpecParseError("state spec must be a JSON object", field="state")
    if "family" in spec:
        name = spec["family"]
        fam = FAMILIES.get(name) if isinstance(name, str) else None
        if fam is None:
            raise SpecParseError(f"unknown family {name!r}", field="family")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SpecParseError("params must be an object", field="params")
        try:
            return fam.instantiate(**params)
        except TypeError as exc:
            raise SpecParseError(str(exc), field="params") from exc
    if "matrix" in spec:
        dim_a, dim_b = (spec_integer(d, "dims", 1, float("inf"))
                        for d in spec_array(spec.get("dims"), (2,), "dims"))
        return DensityMatrix(dim_a, dim_b, parse_complex_matrix(spec["matrix"], where="matrix"))
    raise SpecParseError("state spec needs either 'family' or 'matrix'", field="state")
