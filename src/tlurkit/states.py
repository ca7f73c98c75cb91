"""State families, random-state constructors, and the rules every spec reader shares.

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
    da, db = integer_argument(dims[0], "dim_a", 1), integer_argument(dims[1], "dim_b", 1)
    n_terms, seed = integer_argument(n_terms, "n_terms", 1), integer_argument(seed, "seed", 0)
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
    ``stack`` checks every point in one pass, one mask over the points per
    rule, and names the first failing point; it builds the (N, d, d)
    matrices with one ``matrix`` call and validates them in one pass.
    ``instantiate`` is its one-point case, and ``bipartitions`` is the one
    place that reads a point's bipartition.  ``matrix`` takes each parameter
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

    def check_params(self, params: dict) -> None:
        """Check the values of one point, as ``stack`` checks each of its
        points, but without a full set of parameters: the values given before
        a grid's sets are built (``fixed_params``) take this check."""
        self._checked({}, params, 1, complete=False)

    def _checked(self, columns: dict, fixed: dict, n: int, complete: bool = True
                 ) -> tuple[tuple[int, int] | None, dict[str, np.ndarray]]:
        """The n points' bipartition and one float column per parameter (its
        column in ``columns``, else its value in ``fixed`` or the defaults,
        repeated), in one pass over the points; or the error that the first
        failing point gives on its own, with ``error.state`` its index.  A
        point's rules, in order: an unknown parameter; for each parameter in
        merged order (defaults, then fixed, then columns), a value that is
        not a number (a bool or a string names it), outside the declared
        range, or not integral for one of ``integers``; then, when
        ``complete``, a missing parameter and a bipartition other than point
        0's.  Each value rule is one mask over the points; a failing value
        shows as given, an array column's as a Python number."""
        given = {**self.defaults, **fixed, **columns}
        unknown = sorted(given.keys() - self.params.keys())
        if unknown:
            raise ParameterRangeError(
                f"unknown parameter(s) {unknown} for family '{self.name}'", state=0)
        # a rule: (mask of the points it passes, parameter, what it asks of (lo, hi), show)
        rules, cols, passing = [], {}, None  # None: no rule yet, every point passes
        for name, values in given.items():
            col, number = _float_column(values if name in columns else [values])
            lo, hi = self.params[name]
            if name in self.open_params:
                inside, asks = (lo < col) & (col < hi), "lie in ({}, {})"
            else:
                inside, asks = (lo <= col) & (col <= hi), "lie in [{}, {}]"
            rules += [(number, name, "be a number", repr), (inside, name, asks, str)]
            # a value that is not a number reads NaN, in no range
            passing = inside if passing is None else passing & inside
            if name in self.integers:
                rules.append((col == np.floor(col), name, "be an integer", str))
                passing = passing & rules[-1][0]
            cols[name] = col if name in columns else np.full(n, col[0])
        first = n if passing is None or passing.all() else int(passing.argmin())
        dims = None
        if complete and first:  # the points before the first value failure
            missing = self.params.keys() - given.keys()
            if missing:
                raise ParameterRangeError(
                    f"missing parameter(s) {sorted(missing)} for family '{self.name}'", state=0)
            dims = self.bipartitions({name: col[:first] for name, col in cols.items()}, first)
            if dims.count(dims[0]) < first:
                other = next(k for k, d in enumerate(dims) if d != dims[0])
                raise DimensionMismatchError(
                    f"a stack holds one bipartition: {dims[other]} vs {dims[0]}", state=other)
            dims = dims[0]
        if first < n:
            _, name, what, form = next(r for r in rules if not np.broadcast_to(r[0], n)[first])
            value = given[name]
            if name in columns:
                value = value.tolist()[first] if isinstance(value, np.ndarray) else value[first]
            raise ParameterRangeError(
                f"{name} must {what.format(*self.params[name])} for family '{self.name}', "
                f"got {shown(value, form)}", state=first)
        return dims, cols

    def stack(self, columns: dict, fixed: dict | None = None) -> DensityStack:
        """The states at the points whose parameters are ``columns`` (one 1-D
        column of values per varying parameter, all of one length) over the
        shared ``fixed`` ones, all of one bipartition: checked in one pass
        over the points, built from float columns with one ``matrix`` call
        and validated in one pass.  A failure names the offending point's
        index in ``error.state``, with the message that point's own checks
        give: the first failing point, in point order, and its first failing
        check."""
        shapes = {np.shape(col) for col in columns.values()}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise DimensionMismatchError(
                f"a stack's columns are 1-D and of one length, got shapes {sorted(shapes)}")
        n = shapes.pop()[0] if shapes else 0
        if not n:
            raise DimensionMismatchError("a stack needs at least one point")
        dims, cols = self._checked(columns, fixed or {}, n)
        return DensityStack(*dims, self.matrix(**cols))

    def instantiate(self, **params) -> DensityMatrix:
        """The state at one point: the one-point case of ``stack``, through
        the same checks and builder, validated once."""
        dims, cols = self._checked({}, params, 1)
        return DensityMatrix(*dims, self.matrix(**cols)[0])

    def bipartitions(self, values: dict, n: int) -> list[tuple[int, int]]:
        """The bipartition (d_A, d_B) of each of n points whose parameters are
        ``values`` (each a number, or a column of the n points): ``dim_a``
        and ``dim_b``, over the defaults, when the family takes them, else
        ``dims``.  The one place that reads a bipartition from parameters."""
        if not {"dim_a", "dim_b"} <= self.params.keys():
            return [self.dims] * n
        merged = {**self.defaults, **values}
        columns = (np.broadcast_to(merged[name], n).tolist() for name in ("dim_a", "dim_b"))
        return [(int(a), int(b)) for a, b in zip(*columns)]

    def dims_for(self, params: dict | None = None) -> tuple[int, int]:
        """The bipartition of the one point ``params``."""
        return self.bipartitions(params or {}, 1)[0]


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


def _float_column(values) -> tuple[np.ndarray, np.ndarray | bool]:
    """``values`` as one float column, and the mask of those that are
    numbers by ``is_number``'s rule: read from the set of their types (an
    array's is its dtype's) and one float conversion.  Only a column that
    fails those (a bool, a string, an int past the float range) is read value
    by value: a non-number, or a number that is not finite, reads NaN, which
    lies in no declared range."""
    kinds = {values.dtype.type} if isinstance(values, np.ndarray) else set(map(type, values))
    if all(map(_number_type, kinds)):
        try:
            return np.asarray(values, dtype=float), True
        except OverflowError:  # an int past the float range
            pass
    numbers = [is_number(v) for v in values]
    return (np.array([float(v) if ok and is_finite(v) else math.nan
                      for v, ok in zip(values, numbers)]), np.array(numbers))


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


def integer_argument(value, name: str, lo: int) -> int:
    """``number_argument`` with an integral value (``2`` or ``2.0``, not
    ``2.5``) of at least ``lo``, as an int."""
    if not number_argument(value, name).is_integer():
        raise ParameterRangeError(f"{name} must be an integer, got {shown(value)}")
    if value < lo:
        raise ParameterRangeError(f"{name} must be >= {lo}, got {int(value)}")
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


def spec_kind(spec, kinds: dict[str, set[str]], what: str) -> str:
    """The one kind a spec names; ``kinds`` maps each kind's key to the other
    keys it reads.  A spec that is not an object, names no kind or two, or
    carries another key raises ``SpecParseError`` naming ``what``."""
    if not isinstance(spec, dict):
        raise SpecParseError(f"must be a JSON object, got {type(spec).__name__}", field=what)
    named = [kind for kind in kinds if kind in spec]
    if len(named) != 1:
        raise SpecParseError(f"ambiguous kinds {named}" if named
                             else f"names none of the kinds {list(kinds)}", field=what)
    if stray := [key for key in spec if key != named[0] and key not in kinds[named[0]]]:
        raise SpecParseError(f"keys {stray} are not read by a {named[0]!r} spec", field=what)
    return named[0]


def spec_params(spec: dict) -> dict:
    """A copy of a spec's ``params`` object, ``{}`` when it has none."""
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SpecParseError("params must be an object", field="params")
    return dict(params)


def state_from_spec(spec: dict) -> DensityMatrix:
    """Build a state from a JSON-style spec.

    Either ``{"family": name, "params": {...}}`` or
    ``{"dims": [dim_a, dim_b], "matrix": [[[re, im], ...], ...]}``; by
    ``spec_kind``, no other key and not both.  Values follow ``is_number``
    (``dims``: integral); a bad one names its field.
    """
    if spec_kind(spec, {"family": {"params"}, "matrix": {"dims"}}, "state") == "family":
        name = spec["family"]
        fam = FAMILIES.get(name) if isinstance(name, str) else None
        if fam is None:
            raise SpecParseError(f"unknown family {name!r}", field="family")
        try:
            return fam.instantiate(**spec_params(spec))
        except TypeError as exc:
            raise SpecParseError(str(exc), field="params") from exc
    dim_a, dim_b = (spec_integer(d, "dims", 1, float("inf"))
                    for d in spec_array(spec.get("dims"), (2,), "dims"))
    return DensityMatrix(dim_a, dim_b, parse_complex_matrix(spec["matrix"], where="matrix"))
