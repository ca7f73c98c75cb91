"""Parameter sweeps and threshold bisection over state families.

Grids are Cartesian products of axes, first axis slowest; cells come out
in grid order, so output is byte-identical across runs.

Sweeps, bisections and ``evaluate_criterion`` resolve their inputs in one
``Plan``: the criteria, and the observable set of each bipartition, built
once per bipartition, before any state of it, and reused; the Schmidt
builder resolves to a ``SchmidtFrame``, which holds no operators.
Parameter columns are all that passes from a grid to its states: a sweep
turns each axis into one column over the grid's points, and no dict is
built per point.  It evaluates its grid as one batch: the points of one
bipartition (the family's ``bipartitions`` groups them), taken from the
columns by index, are checked in one pass over the points, built as one
``DensityStack`` and validated in one pass, and each criterion runs once on
the stack, the set criteria reading one record, the set's ``Moments`` of
the stack, between them.  A criterion gives one ``CriterionReport`` of
arrays for the stack, and each cell's reports are its rows
(``CriterionReport.summaries``).  A stack whose arrays would pass 32 MiB
(many states of d_A, d_B >= 6) is split into several, so memory stays
bounded.  A bisection runs on the same path, each probe one column of its
parameter: one stack for the endpoints and the midpoints of five whole
bisection levels, whatever ``tol`` is, all of which the single-crossing
check reads.  Each later stack is the path of at most 31 midpoints that
bisection would take to the crossing the margins at the bracket's ends
predict.  The walk reads the probed verdicts at its own midpoints only, so
thresholds are those of bisecting one midpoint at a time.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

import numpy as np

from . import criteria as _crit
from . import cvgauss as _cv
from .errors import (
    NoCrossingError,
    NonMonotonicMarginError,
    ParameterRangeError,
    TlurkitError,
    shown,
)
from .observables import Frame, observables_from_spec
from .report import DETECTION_TOL, CriterionReport
from .states import FAMILIES, is_finite, is_number, number_argument

__all__ = [
    "GridAxis", "ScanResult", "sweep", "bisect_threshold",
    "evaluate_criterion", "Plan", "DV_CRITERIA", "CV_CRITERIA",
]


@dataclass(frozen=True)
class CriterionEntry:
    """``evaluate(rho, obs)`` gives the ``CriterionReport`` of a
    ``DensityMatrix`` or a ``DensityStack``; ``obs`` is a set, or its
    ``Moments`` of ``rho``."""

    name: str
    needs_obs: bool
    description: str
    evaluate: Callable


DV_CRITERIA: dict[str, CriterionEntry] = {}


def _register(name, needs_obs, description, fn, *args):
    """``evaluate`` runs ``fn(rho, obs, *args)`` for a set criterion and
    ``fn(rho)`` else.  ``fn`` is held in the closure, where the benchmark's
    tracer (``perfbench/tracing.py``) swaps in its timed wrapper."""
    def evaluate(rho, obs):
        return fn(rho, obs, *args) if needs_obs else fn(rho)
    DV_CRITERIA[name] = CriterionEntry(name, needs_obs, description, evaluate)


_register("lur", True, "joint variance sum vs U_A + U_B", _crit.eval_lur)
_register("tlur", True, "joint variance sum vs U_A + U_B + M^2", _crit.eval_tlur)
_register("tlur_dual", True, "upper bound U_A + U_B + (sqrt+sqrt)^2", _crit.eval_tlur_dual)
_register("lemma1", True, "sqrt(excess product) +/- covariance sum >= 0", _crit.eval_lemma1)
_register("corollary1", True, "LOO witness with purity term", _crit.eval_corollary1)
_register("nonlinear_witness", True, "LOO witness without purity term",
          _crit.eval_nonlinear_witness)
_register("ppt", False, "negative partial transpose", _crit.eval_ppt)
_register("ccnr", False, "realignment trace norm > 1", _crit.eval_ccnr)
_register("c_lur", True, "violation-normalized estimate C_LUR", _crit.eval_measure, "c_lur")
_register("c_tlur", True, "violation-normalized estimate C_TLUR", _crit.eval_measure, "c_tlur")

CV_CRITERIA: dict[str, CriterionEntry] = {
    "duan": CriterionEntry("duan", False, "Var(u)+Var(v) vs a^2 + 1/a^2",
                           lambda state, a: _cv.eval_duan(state, a)),
    "corollary2": CriterionEntry("corollary2", False,
                                 "Var(u)+Var(v) vs a^2 + 1/a^2 + M^2",
                                 lambda state, a: _cv.eval_corollary2(state, a)),
}


class Plan:
    """What a run evaluates: the criteria and the observable set each state gets.

    ``entries`` are the criteria's registry entries.  ``observables(dims)``
    gives the states of a bipartition their set, from ``obs_spec`` or, when
    that is None, from the default for the dimensions (``pauli_loo_pair`` for
    2x2, ``schmidt_loo_pair`` otherwise) if a criterion reads a set.  Every
    spec is built once per bipartition, read or not, so a bad one, or one
    that acts on other dimensions, is named: ``schmidt_loo_pair`` gives the
    bipartition's ``SchmidtFrame``, which reads each state's Schmidt pair
    from the SVD of its coefficient matrix.  A ``Frame`` is used as given.
    """

    def __init__(self, criteria: list[str], obs_spec=None):
        self.entries = []
        for name in criteria:
            if name not in DV_CRITERIA:
                raise ParameterRangeError(
                    f"unknown criterion '{name}'; known: {sorted(DV_CRITERIA)}")
            self.entries.append(DV_CRITERIA[name])
        self.needs_obs = any(e.needs_obs for e in self.entries)
        self.obs_spec = obs_spec
        self._sets: dict[tuple[int, int], Frame | None] = {}

    def spec(self, dims: tuple[int, int]):
        """The spec the states of bipartition ``dims`` get."""
        if self.needs_obs and self.obs_spec is None:
            return "pauli_loo_pair" if dims == (2, 2) else "schmidt_loo_pair"
        return self.obs_spec

    def observables(self, dims: tuple[int, int]) -> Frame | None:
        if dims not in self._sets:
            spec = self.spec(dims)
            if not (spec is None or isinstance(spec, Frame)):
                spec = observables_from_spec(spec, dims=dims)
            if spec is not None:
                spec.check_dims(dims)
            self._sets[dims] = spec
        return self._sets[dims]

    def evaluate(self, rho) -> list[CriterionReport]:
        """Each criterion's ``CriterionReport`` on a state or a stack.  When a
        criterion reads a set, the set's ``Moments`` of ``rho`` are read once
        and passed to every criterion in its place."""
        obs = self.observables(rho.dims)
        if self.needs_obs:
            obs = obs.moments(rho)
        return [entry.evaluate(rho, obs) for entry in self.entries]

    def recorded_spec(self, bipartitions):
        """What a result records under ``obs``: the spec every bipartition
        gets ("explicit" for a given set), else a map from "<d_A>x<d_B>" to
        the spec of each."""
        specs = {f"{da}x{db}": self.spec((da, db)) for da, db in bipartitions}
        first = next(iter(specs.values()))
        if isinstance(first, Frame):
            return "explicit"
        return first if all(s == first for s in specs.values()) else specs


def evaluate_criterion(name: str, rho, obs=None):
    """One criterion's ``CriterionReport`` on a state or a stack; ``obs`` is a
    set, a spec, or None for the default set of the state's bipartition."""
    return Plan([name], obs).evaluate(rho)[0]


def resolve_workers() -> int:
    """Always 1: sweeps run in the calling thread.

    Kept only for the benchmark's info line (``perfbench/workloads.py``),
    which reads it; remove it with the next change to the benchmark.
    """
    return 1


# The most points a grid may hold, checked before any list is built: 52x the
# 19 x 101 Fig. 1 grid, while a step such as 1e-12 on [0, 1] would ask for a
# 10^12-element list and exhaust memory.
MAX_GRID_POINTS = 100_000


def _grid_size(grid: list[GridAxis]) -> int:
    # floor, not round, so no value passes stop when step does not divide the
    # interval; the slack absorbs round-off when it does.  In floats, a span
    # past the float range reads inf instead of overflowing.
    count = math.prod(float(np.floor((ax.stop - ax.start) / ax.step + 1e-9)) + 1
                      for ax in grid)
    if count > MAX_GRID_POINTS:
        raise ParameterRangeError(
            f"grid over axes {[ax.name for ax in grid]} has {count:.0f} points, "
            f"more than the {MAX_GRID_POINTS} a grid may hold")
    return int(count)


@dataclass(frozen=True)
class GridAxis:
    """One swept parameter: values start, start+step, ..., stop (inclusive),
    each bound kept as the float ``number_argument`` reads it."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        for key in ("start", "stop", "step"):
            object.__setattr__(self, key,
                               number_argument(getattr(self, key), f"axis '{self.name}': {key}"))
        if self.step <= 0:
            raise ParameterRangeError(f"axis '{self.name}': step must be positive")
        if self.stop < self.start:
            raise ParameterRangeError(f"axis '{self.name}': stop below start")

    def values(self) -> list[float]:
        # Each value is rounded to the decimal places of start and step (so
        # 3 * 0.05 is 0.15, not 0.15000000000000002) and clamped to stop.
        n = _grid_size([self])
        places = max(0, -min(Decimal(repr(float(x))).as_tuple().exponent
                             for x in (self.start, self.step)))
        return [min(round(self.start + i * self.step, places), self.stop) for i in range(n)]

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "stop": self.stop,
                "step": self.step}


@dataclass
class ScanResult:
    """A sweep's cells in grid order; ``obs_spec`` is ``Plan.recorded_spec``."""

    family: str
    fixed_params: dict
    axes: list[GridAxis]
    criteria: list[str]
    cells: list[dict]
    obs_spec: object = None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "fixed_params": dict(self.fixed_params),
            "axes": [ax.to_dict() for ax in self.axes],
            "criteria": list(self.criteria),
            "obs": self.obs_spec,
            "cells": self.cells,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def _csv_lines(self):
        """The one CSV formatter: the header, then one line per (grid point,
        criterion), each float as its ``repr``.  A cell's family and parameter
        fields are formatted once, as the prefix of its criteria's lines.  No
        field holds a comma (names are registered, values are floats), so
        fields are not quoted."""
        param_names = [ax.name for ax in self.axes] + sorted(self.fixed_params)
        yield ",".join(["family", *param_names, "criterion", "lhs", "rhs", "margin",
                        "detected"])
        for cell in self.cells:
            params, reports = cell["params"], cell["reports"]
            prefix = ",".join([self.family, *(repr(float(params[p])) for p in param_names)])
            for name in self.criteria:
                rep = reports[name]
                yield (f"{prefix},{name},{rep['lhs']!r},{rep['rhs']!r},{rep['margin']!r},"
                       f"{'true' if rep['detected'] else 'false'}")

    def csv_rows(self):
        """One row per (grid point, criterion), flat for plotting tools: the
        fields of ``to_csv``'s lines."""
        for line in self._csv_lines():
            yield line.split(",")

    def to_csv(self) -> str:
        return "\n".join(self._csv_lines()) + "\n"


def _family(family: str, fixed_params: dict):
    """The registered family, with ``fixed_params`` checked before anything is built."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise ParameterRangeError(f"unknown state family '{family}'")
    fam.check_params(fixed_params)
    return fam


# working set of one stack; Fig. 1's 3x3 grid is one stack, 16x16 states go five at a time
_STACK_BYTES = 32 << 20


def _stack_size(dims: tuple[int, int]) -> int:
    """States per stack: 96 bytes for each of the d^2 = d_A^2 d_B^2 entries of
    a state, a bound on what a stack holds per state at once: the complex
    state (16), at most three complex arrays of its size while C is formed
    from its realignment (48), C and its imaginary residual (16), and U and V
    of C's SVD (at most 16: d_A^2 m + m d_B^2 entries, m = min(d_A^2, d_B^2))."""
    da, db = dims
    return max(1, _STACK_BYTES // (96 * (da * db) ** 2))


def _evaluate_stack(plan: Plan, family: str, columns: dict,
                    fixed_params: dict) -> list[CriterionReport]:
    """Each criterion's report on the states at the points of ``columns``
    (over ``fixed_params``, all of one bipartition), built as one stack.  An
    error's message gains the failing point, or the stack when no one state
    failed; the error keeps its type and its attributes."""
    try:
        return plan.evaluate(FAMILIES[family].stack(columns, fixed_params))
    except TlurkitError as exc:
        if exc.state is None:
            where = f"{len(next(iter(columns.values())))}-point stack"
        else:  # the point's values as Python numbers, as the axis gave them
            point = {name: col.tolist()[exc.state] for name, col in columns.items()}
            where = f"point {point}"
        exc.args = (f"{exc} (at {family} {where})",)
        raise


def sweep(family: str, grid: list[GridAxis], criteria: list[str], obs_spec=None,
          fixed_params: dict | None = None) -> ScanResult:
    """Evaluate criteria over the Cartesian grid; deterministic cell order.

    Each axis becomes one parameter column over the grid's points.  The
    points of each bipartition (read by the family's ``bipartitions``: one,
    unless an axis changes the dimensions) form one stack, taken from the
    columns by index and split only where its arrays would pass 32 MiB:
    each criterion runs once on each stack, with the observable set the plan
    gives that bipartition, and each cell's reports are read from the
    stack's verdicts.  Each parameter is swept by one axis or fixed, never
    both: ``ParameterRangeError`` names one that is not.
    """
    if not criteria:
        raise ParameterRangeError("need at least one criterion")
    if not grid:
        raise ParameterRangeError("need at least one grid axis")
    fixed_params = dict(fixed_params or {})
    fam = _family(family, fixed_params)
    # the result records a numpy scalar as its Python number, so it serialises
    fixed_params = {k: v.item() if isinstance(v, np.generic) else v
                    for k, v in fixed_params.items()}
    names = [ax.name for ax in grid]
    for k, name in enumerate(names):  # a cell reports the values its state is built at
        if name in fixed_params or name in names[:k]:
            raise ParameterRangeError(
                f"parameter '{name}' is swept and also "
                f"{'fixed' if name in fixed_params else 'swept by another axis'}")
    _grid_size(grid)
    plan = Plan(criteria, obs_spec)
    values = [ax.values() for ax in grid]
    # the grid's points in grid order (first axis slowest), as each axis's index
    index = np.indices([len(v) for v in values]).reshape(len(grid), -1)
    columns = {name: np.asarray(v)[i] for name, v, i in zip(names, values, index)}
    n = index.shape[1]
    groups: dict[tuple[int, int], list[int]] = {}  # point indices, in order of first appearance
    for i, dims in enumerate(fam.bipartitions({**fixed_params, **columns}, n)):
        groups.setdefault(dims, []).append(i)
    for dims in groups:  # a bad set is named before any state is built
        plan.observables(dims)
    size = {dims: _stack_size(dims) for dims in groups}
    stacks = [idx[k:k + size[dims]] for dims, idx in groups.items()
              for k in range(0, len(idx), size[dims])]
    reports = [None] * n
    for idx in stacks:
        stacked = _evaluate_stack(plan, family, {name: col[idx] for name, col in columns.items()},
                                  fixed_params)
        per_state = zip(*(report.summaries() for report in stacked))
        for i, summaries in zip(idx, per_state):
            reports[i] = dict(zip(criteria, summaries))
    cells = [{"params": {**dict(zip(names, point)), **fixed_params}, "reports": r}
             for point, r in zip(itertools.product(*values), reports)]
    return ScanResult(family, fixed_params, list(grid), list(criteria), cells,
                      obs_spec=plan.recorded_spec(groups))


# a bisection's first stack holds five whole levels of midpoints, and no
# later stack holds more midpoints than those 2**5 - 1
_BISECT_LEVELS = 5
_BISECT_MIDPOINTS = 2 ** _BISECT_LEVELS - 1


def _whole_levels(a: float, b: float) -> list[float]:
    """The midpoints of the first five levels of the bisection of (a, b),
    level by level; an interval with no float strictly inside ends its
    branch."""
    mids, level = [], [(a, b)]
    for _ in range(_BISECT_LEVELS):
        below = []
        for x, y in level:
            mid = 0.5 * (x + y)
            if x < mid < y:
                mids.append(mid)
                below += [(x, mid), (mid, y)]
        level = below
    return mids


def _guessed_path(a: float, m_a: float, b: float, m_b: float, tol: float) -> list[float]:
    """The midpoints that bisection of (a, b) would probe if the crossing lay
    where the margins at a and b predict it, by linear interpolation to
    ``DETECTION_TOL``: from the bracket's midpoint down to a bracket within
    ``tol`` or with no float strictly inside, at most ``_BISECT_MIDPOINTS``.
    The verdicts at a and b differ, so their margins do too; a guess that is
    not finite (an infinite or NaN margin) leads the path down."""
    guess = a + (b - a) * ((DETECTION_TOL - m_a) / (m_b - m_a))
    path = []
    while len(path) < _BISECT_MIDPOINTS and b - a > tol and a < (mid := 0.5 * (a + b)) < b:
        path.append(mid)
        if mid < guess:
            a = mid
        else:
            b = mid
    return path


def bisect_threshold(family: str, param: str, lo: float, hi: float, criterion: str,
                     obs_spec=None, tol: float = 1e-4,
                     fixed_params: dict | None = None) -> float:
    """Locate the verdict flip of one criterion along one parameter.

    The first stack holds ``lo`` and ``hi``, which lead it so that an error
    names an out-of-range endpoint first, and the midpoints of five whole
    bisection levels (33 points whatever ``tol`` is, fewer only where floats
    run out).  Sorted by value, its verdicts must cross exactly once (margins
    themselves need not be monotone): none raises ``NoCrossingError``, more
    raise ``NonMonotonicMarginError`` naming the pair at the second.  The
    walk stops at a bracket within ``tol``, so the result is within
    max(``tol``, the float spacing at the crossing) of the crossing.

    Every probe is kept, keyed by its value.  The walk steps from the
    bracket (a, b) to a half while the bracket is wider than ``tol``, its
    midpoint lies strictly inside it and has been probed; where the midpoint
    has not, the next stack is the path that bisection of (a, b) would take
    to the crossing the margins at a and b predict, up to 31 midpoints, so
    each stack takes the walk at least one level down.  The walk reads
    the midpoints of sequential bisection, computed the same way, in its
    order, so the result is that of bisecting one midpoint at a time,
    whichever points a stack held.  ``param`` must not be among
    ``fixed_params``, nor an integer parameter of the family.
    """
    for key, value in (("lo", lo), ("hi", hi), ("tol", tol)):
        if not is_number(value):
            raise ParameterRangeError(f"{key} must be a number, got {shown(value, repr)}")
    if not (is_finite(lo) and is_finite(hi) and hi > lo):
        raise ParameterRangeError(f"need finite hi > lo, got [{shown(lo)}, {shown(hi)}]")
    if not (is_finite(tol) and tol > 0):
        raise ParameterRangeError(f"tol must be finite and positive, got {shown(tol)}")
    fixed_params = dict(fixed_params or {})
    fam = _family(family, fixed_params)
    if param in fixed_params:
        raise ParameterRangeError(f"parameter '{param}' is bisected and also fixed")
    if param in fam.integers:  # its midpoints are not integers
        raise ParameterRangeError(
            f"parameter '{param}' of family '{family}' takes integers and cannot be bisected")
    plan = Plan([criterion], obs_spec)
    plan.observables(fam.dims_for({**fixed_params, param: lo}))  # before any state is built
    probed: dict[float, tuple[bool, float]] = {}

    def probe(xs: list[float]) -> None:
        report, = _evaluate_stack(plan, family, {param: np.array(xs, dtype=float)},
                                  fixed_params)
        probed.update(zip(xs, zip(report.detected.tolist(), report.margin.tolist())))

    a, b = float(lo), float(hi)
    probe([a, b, *_whole_levels(a, b)])
    (v_lo, m_a), (_, m_b) = probed[a], probed[b]
    spots = sorted(probed.items())
    crossings = [k for k in range(len(spots) - 1) if spots[k][1][0] != spots[k + 1][1][0]]
    if not crossings:
        raise NoCrossingError(
            f"criterion '{criterion}' gives the same verdict (detected={v_lo}) "
            f"at {param}={lo} (margin {m_a}) and {param}={hi} (margin {m_b})")
    if len(crossings) > 1:
        (x, (_, m_x)), (y, (_, m_y)) = spots[crossings[1]:crossings[1] + 2]
        raise NonMonotonicMarginError(
            f"verdict crosses {len(crossings)} times at {len(spots)} points; offending "
            f"pair {param}={x} (margin {m_x}) and {param}={y} (margin {m_y})")

    while b - a > tol and a < (mid := 0.5 * (a + b)) < b:
        if mid not in probed:
            probe(_guessed_path(a, m_a, b, m_b, tol))
        verdict, m = probed[mid]
        if verdict == v_lo:
            a, m_a = mid, m
        else:
            b, m_b = mid, m
    return 0.5 * (a + b)
