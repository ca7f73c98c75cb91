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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    ParameterRangeError,
    SpecParseError,
    TlurkitError,
    shown,
)
from .linops import DensityMatrix, DensityStack

__all__ = [
    "horodecki33", "white_noise_mix", "horodecki_noise", "noisy_singlet",
    "singlet", "random_pure_state", "random_mixed_state",
    "random_separable", "state_from_spec", "FAMILIES", "StateFamily",
]


def singlet() -> DensityMatrix:
    """|psi_s> = (|01> - |10>)/sqrt(2)."""
    return DensityMatrix(2, 2, _SINGLET)


_SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
_SINGLET = np.outer(_SINGLET_KET, _SINGLET_KET)


# the a-independent parts of horodecki33: the five product projectors |01>, |02>,
# |10>, |12>, |21> (diagonal, |ij> is basis index 3i + j) and the maximally
# entangled projector
_H33_PRODUCTS = np.diag([0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
_H33_EMAX = np.zeros(9)
_H33_EMAX[[0, 4, 8]] = 1.0 / np.sqrt(3)
_H33_MAXENT = np.outer(_H33_EMAX, _H33_EMAX)


def _horodecki33_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    pi = np.zeros(a.shape + (9,))
    pi[..., 6], pi[..., 8] = np.sqrt((1 + a) / 2), np.sqrt((1 - a) / 2)  # on |20> and |22>
    a = a[..., None, None]
    rho = a * _H33_PRODUCTS + 3 * a * _H33_MAXENT + pi[..., :, None] * pi[..., None, :]
    return rho / (1 + 8 * a)


def _noise_mixed(m: np.ndarray, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)[..., None, None]
    d = m.shape[-1]
    return p * m + (1.0 - p) * np.eye(d) / d


def horodecki33(a: float) -> DensityMatrix:
    """The 3x3 bound entangled family, real symmetric, PPT for all a in (0,1).

    Weights a/(1+8a) on five product kets, 3a/(1+8a) on the maximally
    entangled projector and 1/(1+8a) on the a-dependent |Pi> projector;
    the weights sum to one exactly.  The family ``horodecki``'s one point.
    """
    return FAMILIES["horodecki"].instantiate(a=a)


def white_noise_mix(rho: DensityMatrix, p: float) -> DensityMatrix:
    """p * rho + (1-p) * identity / (dim_a dim_b)."""
    p = number_argument(p, "p")
    if not 0.0 <= p <= 1.0:
        raise ParameterRangeError(f"p must lie in [0.0, 1.0], got {p}")
    return DensityMatrix(rho.dim_a, rho.dim_b, _noise_mixed(np.asarray(rho.matrix), p))


def horodecki_noise(a: float, p: float) -> DensityMatrix:
    """White-noise mixture of the 3x3 bound entangled state, validated once:
    the family ``horodecki_noise``'s one point."""
    return FAMILIES["horodecki_noise"].instantiate(a=a, p=p)


_NOISY_SINGLET_SEP = np.diag([2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0])


def _noisy_singlet_matrix(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)[..., None, None]
    return p * _SINGLET + (1.0 - p) * _NOISY_SINGLET_SEP


def noisy_singlet(p: float) -> DensityMatrix:
    """p |psi_s><psi_s| + (1-p) (2/3 |00><00| + 1/3 |01><01|); entangled for
    all p > 0.  The family ``noisy_singlet``'s one point."""
    return FAMILIES["noisy_singlet"].instantiate(p=p)


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
    n_terms, seed = integer_argument(n_terms, "n_terms"), integer_argument(seed, "seed")
    return DensityMatrix(da, db, _random_separable_matrix(da, db, n_terms, seed))


def _random_separable_stack(dim_a, dim_b, n_terms, seed) -> np.ndarray:
    """The family's matrices, one seeded draw per point: seeded draws do not
    vectorise, so the points are looped here."""
    points = np.broadcast(dim_a, dim_b, n_terms, seed)
    mats = [_random_separable_matrix(*(int(v) for v in point)) for point in points]
    return np.reshape(mats, points.shape + mats[0].shape)


@dataclass(frozen=True)
class StateFamily:
    """A named, parameterized family of states for scans and the CLI.

    Parameter columns are what passes between a grid and a stack: each
    varying parameter is one 1-D column of its values over the points.
    ``stack`` checks the columns as columns (``check_params``'s rules, a full
    set of parameters, one bipartition), builds the (N, d, d) matrices with
    one ``matrix`` call and validates them in one pass; only when a check
    fails does it walk the points, to name the first failing one.
    ``instantiate`` is its one-point case.  ``matrix`` takes each parameter
    as a float column and returns the stack of unvalidated density matrices;
    given numbers, it returns the one (d, d) matrix.  ``params`` declares
    each parameter's range (lo, hi): inclusive, or open at both ends for the
    parameters named in ``open_params``, as the builder requires.
    """

    name: str
    dims: tuple[int, int]
    params: dict[str, tuple[float, float]]  # name -> (lo, hi); int bounds: integral
    matrix: Callable[..., np.ndarray]
    description: str = ""
    defaults: dict[str, float] = field(default_factory=dict)
    open_params: frozenset[str] = frozenset()

    @cached_property
    def integers(self) -> frozenset[str]:
        """The parameters whose declared bounds are both ``int``: they take
        integral values only."""
        return frozenset(name for name, (lo, hi) in self.params.items()
                         if isinstance(lo, int) and isinstance(hi, int))

    def _inside(self, name: str, value):
        """Whether ``value`` (a number or a column) lies in the declared range."""
        lo, hi = self.params[name]
        if name in self.open_params:
            return (lo < value) & (value < hi)
        return (lo <= value) & (value <= hi)

    def check_params(self, params: dict) -> None:
        """Reject unknown parameters and values outside the declared
        ranges; a parameter of ``integers`` must take an integral value (``2``
        and ``2.0``, not ``2.5``).  A value must be a real number: a bool or a
        string names its parameter in the error.  This checks one point;
        ``stack`` runs the same checks on columns."""
        if not params.keys() <= self.params.keys():
            unknown = sorted(params.keys() - self.params.keys())
            raise ParameterRangeError(f"unknown parameter(s) {unknown} for family '{self.name}'")
        for name, value in params.items():
            if not is_number(value):
                raise ParameterRangeError(
                    f"{name} must be a number for family '{self.name}', "
                    f"got {shown(value, repr)}")
            lo, hi = self.params[name]
            if not self._inside(name, value):
                span = f"({lo}, {hi})" if name in self.open_params else f"[{lo}, {hi}]"
                raise ParameterRangeError(
                    f"{name} must lie in {span} for family '{self.name}', got {shown(value)}")
            if name in self.integers and value != int(value):
                raise ParameterRangeError(
                    f"{name} must be an integer for family '{self.name}', got {value}")

    def _columns(self, columns: dict, fixed: dict, n: int) -> dict[str, np.ndarray] | None:
        """One float column of the n points per parameter (its column in
        ``columns``, else its value in ``fixed`` or the defaults, repeated),
        or None if any value fails a check of ``check_params``, a parameter
        is missing, or the dimensions vary.  A column's values are checked
        by their types, a list's and an array's alike."""
        base = {**self.defaults, **fixed}
        if columns.keys() | base.keys() != self.params.keys():
            return None
        cols = {}
        for name in self.params:
            values = columns[name] if name in columns else [base[name]]
            if not _numbers(values):
                return None
            try:
                col = np.asarray(values, dtype=float)
            except OverflowError:  # an int past the float range
                return None
            bad = ~self._inside(name, col)
            if name in self.integers:
                bad |= col != np.floor(col)
            if name in ("dim_a", "dim_b"):
                bad |= col != col[0]
            if bad.any():
                return None
            cols[name] = col if name in columns else np.full(n, col[0])
        return cols

    def _raise_first_failure(self, columns: dict, fixed: dict, n: int) -> None:
        """Raise the error of the first point that fails its own checks (those
        of ``check_params``, a full set of parameters, the first point's
        dimensions, and ``matrix``'s), naming it in ``error.state``.  A point
        holds its values as given: an array column's as Python numbers."""
        lists = {name: col.tolist() if isinstance(col, np.ndarray) else list(col)
                 for name, col in columns.items()}
        dims = None
        for k in range(n):
            try:
                merged = {**self.defaults, **fixed, **{name: v[k] for name, v in lists.items()}}
                self.check_params(merged)
                missing = self.params.keys() - merged.keys()
                if missing:
                    raise ParameterRangeError(
                        f"missing parameter(s) {sorted(missing)} for family '{self.name}'")
                dims = dims or self.dims_for(merged)
                if self.dims_for(merged) != dims:
                    raise DimensionMismatchError(
                        f"a stack holds one bipartition: {self.dims_for(merged)} vs {dims}")
                self.matrix(**merged)
            except TlurkitError as exc:
                exc.state = k
                raise

    def _matrices(self, columns: dict, fixed: dict,
                  n: int) -> tuple[tuple[int, int], np.ndarray]:
        """The bipartition and the unvalidated (n, d, d) matrices of the n
        points of ``columns`` over ``fixed``: the column checks and one
        ``matrix`` call, or the error of the first failing point."""
        if not n:
            raise DimensionMismatchError("a stack needs at least one point")
        cols = self._columns(columns, fixed, n)
        try:
            if cols is None:
                raise ParameterRangeError("a point of the stack fails its checks")
            matrices = self.matrix(**cols)
        except TlurkitError:
            self._raise_first_failure(columns, fixed, n)
            raise
        return self.dims_for({name: col[0] for name, col in cols.items()}), matrices

    def stack(self, columns: dict, fixed: dict | None = None) -> DensityStack:
        """The states at the points whose parameters are ``columns`` (one 1-D
        column of values per varying parameter, all of one length) over the
        shared ``fixed`` ones, all of one bipartition: built from float
        columns and validated in one pass.  A failure names the offending
        point's index in ``error.state``, with the message that point's own
        checks give: the first failing point, in point order, and its first
        failing check."""
        shapes = {np.shape(col) for col in columns.values()}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise DimensionMismatchError(
                f"a stack's columns are 1-D and of one length, got shapes {sorted(shapes)}")
        n = shapes.pop()[0] if shapes else 0
        dims, matrices = self._matrices(columns, fixed or {}, n)
        return DensityStack(*dims, matrices)

    def instantiate(self, **params) -> DensityMatrix:
        """The state at one point: the one-point case of ``stack``, through
        the same checks and builder, validated once."""
        dims, matrices = self._matrices({}, params, 1)
        return DensityMatrix(*dims, matrices[0])

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
    open_params=frozenset({"a"}),
))
_register(StateFamily(
    name="horodecki_noise",
    dims=(3, 3),
    params={"a": (0.0, 1.0), "p": (0.0, 1.0)},
    matrix=lambda a, p: _noise_mixed(_horodecki33_matrix(a), p),
    description="white-noise mixture p*horodecki(a) + (1-p)*I/9",
    open_params=frozenset({"a"}),
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
    matrix=_random_separable_stack,
    description="seeded random mixture of pure product states",
    defaults={"dim_a": 2, "dim_b": 2, "n_terms": 4, "seed": 0},
))


_REAL = (int, float, np.integer, np.floating)


def _number_type(kind: type) -> bool:
    return issubclass(kind, _REAL) and not issubclass(kind, bool)


def _numbers(items) -> bool:
    """Whether every item is a number by ``is_number``'s rule, read from the
    set of their types."""
    return all(map(_number_type, set(map(type, items))))


def is_number(value) -> bool:
    """The one rule for a number in a spec: an int or a float, numpy integer
    and floating scalars too, never a bool (an int subclass) or a string."""
    return _number_type(type(value))


def is_finite(value) -> bool:
    """Whether a number reads as a finite float (an int past its range does not)."""
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def number_argument(value, name: str) -> float:
    """A library argument as a float by the one number rule: ``is_number``,
    then finite; else ``ParameterRangeError`` naming ``name``."""
    if not is_number(value):
        raise ParameterRangeError(f"{name} must be a number, got {shown(value, repr)}")
    if not is_finite(value):
        raise ParameterRangeError(f"{name} must be finite, got {shown(value)}")
    return float(value)


def integer_argument(value, name: str) -> int:
    """``number_argument`` with an integral value (``2`` or ``2.0``, not
    ``2.5``), as an int."""
    if not number_argument(value, name).is_integer():
        raise ParameterRangeError(f"{name} must be an integer, got {shown(value)}")
    return int(value)


def spec_number(value, where: str) -> float:
    """A spec number as a float, else ``SpecParseError`` naming ``where``."""
    if is_number(value):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise SpecParseError(f"must be a number, got {shown(value, repr)}", field=where)


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
        raise SpecParseError(f"must be a list of {shape[0]}, got {shown(value, repr)}",
                             field=where)
    return [spec_array(v, shape[1:], where) for v in value]


def _parse_complex_entry(entry, where: str) -> complex:
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(spec_number(entry[0], where), spec_number(entry[1], where))
    return complex(spec_number(entry, where))


def _walk_complex_matrix(rows, where: str) -> np.ndarray:
    """The matrix read entry by entry, as a spec that fails a check of the
    one-pass read is: its first failing check names the row or entry."""
    if not isinstance(rows, (list, tuple)) or not rows:
        raise SpecParseError("expected a non-empty list of rows", field=where)
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != len(rows):
            raise SpecParseError("matrix must be square", field=f"{where}[{i}]")
        parsed.append([_parse_complex_entry(e, f"{where}[{i}][{j}]")
                       for j, e in enumerate(row)])
    return np.array(parsed, dtype=complex)


def _sequences(items) -> bool:
    return all(issubclass(kind, (list, tuple)) for kind in set(map(type, items)))


def _complex_matrix_in_one_pass(rows) -> np.ndarray | None:
    """The matrix of a square spec whose entries are all numbers or all
    ``[re, im]`` pairs, through one float conversion of its flattened
    numbers; None when a check of the walk would fail (or might: mixed
    entries) or a number overflows."""
    if not (isinstance(rows, (list, tuple)) and rows and _sequences(rows)
            and set(map(len, rows)) == {len(rows)}):
        return None
    entries = list(itertools.chain.from_iterable(rows))
    pairs = _sequences(entries)
    if pairs and set(map(len, entries)) != {2}:
        return None
    numbers = list(itertools.chain.from_iterable(entries)) if pairs else entries
    if not _numbers(numbers):
        return None
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    matrix = values.view(complex) if pairs else values.astype(complex)
    return matrix.reshape(len(rows), len(rows))


def parse_complex_matrix(rows, where: str = "matrix") -> np.ndarray:
    """A square spec matrix of numbers or ``[re, im]`` pairs as a complex
    array, read in one array pass; a spec that fails a check is walked entry
    by entry, so that the error names its row (``where[i]``) or entry
    (``where[i][j]``)."""
    matrix = _complex_matrix_in_one_pass(rows)
    return _walk_complex_matrix(rows, where) if matrix is None else matrix


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
