"""Parameter sweeps and threshold bisection over state families.

Grids are Cartesian products of axes, first axis slowest; cells come out
in grid order, so output is byte-identical across runs.

Sweeps, bisections and ``evaluate_criterion`` resolve their inputs in one
``Plan``: the criteria, and the observable set of each bipartition.  A
sweep evaluates its grid as one batch: the states of one bipartition are
built as one ``DensityStack`` and validated in one pass, state-adapted
observables (the Schmidt builder) are built for the whole stack by one
batched SVD, and each criterion runs once on the stack, the set criteria
reading one moment-kernel call between them.  A stack whose
arrays would pass 32 MiB (many states of d_A, d_B >= 6) is split into
several, so memory stays bounded.  Any other observable spec is built once
per bipartition and reused.  A bisection runs on the same path: one stack
for its 16 spot checks, the endpoints among them, and the midpoints of the
first five bisection levels, then one for each five further levels.
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
)
from .observables import (
    LocalObservableSet,
    observables_from_spec,
    spec_requires_state,
)
from .report import Verdicts
from .states import FAMILIES

__all__ = [
    "GridAxis", "ScanResult", "sweep", "bisect_threshold",
    "evaluate_criterion", "Plan", "DV_CRITERIA", "CV_CRITERIA",
]


@dataclass(frozen=True)
class CriterionEntry:
    """``evaluate(rho, obs)`` gives the ``CriterionReport`` of a
    ``DensityMatrix``, or the ``Verdicts`` of a ``DensityStack``."""

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

    ``entries`` are the criteria's registry entries.  ``observables(rho)``
    gives a state or a stack the set for its own bipartition, from
    ``obs_spec`` or, when that is None, from the default for its dimensions
    (``pauli_loo_pair`` for 2x2, ``schmidt_loo_pair`` otherwise).  A spec
    adapted to the state (``schmidt_loo_pair``) is built for each state or
    stack; any other spec once per bipartition, then reused; a
    ``LocalObservableSet`` is used as given.
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
        self._sets: dict[tuple[int, int], LocalObservableSet] = {}

    def spec(self, dims: tuple[int, int]):
        """The spec the states of bipartition ``dims`` get."""
        if self.needs_obs and self.obs_spec is None:
            return "pauli_loo_pair" if dims == (2, 2) else "schmidt_loo_pair"
        return self.obs_spec

    def observables(self, rho) -> LocalObservableSet | None:
        if not self.needs_obs:
            return None
        dims = rho.dims
        if dims in self._sets:
            return self._sets[dims]
        spec = self.spec(dims)
        if spec_requires_state(spec):
            return observables_from_spec(spec, state=rho)
        if not isinstance(spec, LocalObservableSet):
            spec = observables_from_spec(spec, dims=dims)
        self._sets[dims] = spec
        return spec

    def evaluate(self, rho) -> list:
        """Each criterion's ``CriterionReport`` on a state, or ``Verdicts`` on a
        stack.  The set criteria share one moment-kernel call on ``rho`` and
        its set, kept only for this call."""
        obs = self.observables(rho)
        with _crit.shared_moments():
            return [entry.evaluate(rho, obs) for entry in self.entries]

    def recorded_spec(self, bipartitions):
        """What a result records under ``obs``: the spec every bipartition
        gets ("explicit" for a given set), else a map from "<d_A>x<d_B>" to
        the spec of each."""
        specs = {f"{da}x{db}": self.spec((da, db)) for da, db in bipartitions}
        first = next(iter(specs.values()))
        if isinstance(first, LocalObservableSet):
            return "explicit"
        return first if all(s == first for s in specs.values()) else specs


def evaluate_criterion(name: str, rho, obs=None):
    """One criterion on a state (a ``CriterionReport``) or a stack
    (``Verdicts``); ``obs`` is a set, a spec, or None for the default set of
    the state's bipartition."""
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
    """One swept parameter: values start, start+step, ..., stop (inclusive)."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        for key in ("start", "stop", "step"):
            if not np.isfinite(getattr(self, key)):
                raise ParameterRangeError(
                    f"axis '{self.name}': {key} must be finite, got {getattr(self, key)}")
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


# working set of one stack; Fig. 1's 3x3 grid is one stack, 16x16 states go two at a time
_STACK_BYTES = 32 << 20


def _stack_size(dims: tuple[int, int]) -> int:
    """States per stack: about 48 bytes for each entry of the moment rows of a
    Schmidt set, (2n + 1) x (d_A^2 + d_B^2) with n = max(d_A^2, d_B^2), the
    largest arrays a stack holds for each state."""
    da, db = dims
    n = max(da, db) ** 2
    return max(1, _STACK_BYTES // (48 * (2 * n + 1) * (da * da + db * db)))


def _evaluate_points(plan: Plan, family: str, points: list[dict],
                     fixed_params: dict) -> list:
    """Each criterion's ``Verdicts`` on the states at ``points`` (over
    ``fixed_params``, all of one bipartition), built as one stack.  An error
    names the failing point, or the stack when no one state failed."""
    fam = FAMILIES[family]
    try:
        return plan.evaluate(fam.stack(points, fixed_params))
    except TlurkitError as exc:
        where = (f"point {points[exc.state]}" if exc.state is not None
                 else f"{len(points)}-point stack")
        raise type(exc)(f"{exc} (at {family} {where})") from exc


def sweep(family: str, grid: list[GridAxis], criteria: list[str], obs_spec=None,
          fixed_params: dict | None = None) -> ScanResult:
    """Evaluate criteria over the Cartesian grid; deterministic cell order.

    The points of each bipartition (one, unless an axis changes the
    dimensions) form one stack, split only where its arrays would pass
    32 MiB: each criterion runs once on each stack, with the observable set
    the plan gives that bipartition.  Each parameter is swept by one axis or
    fixed, never both: ``ParameterRangeError`` names one that is not.
    """
    if not criteria:
        raise ParameterRangeError("need at least one criterion")
    if not grid:
        raise ParameterRangeError("need at least one grid axis")
    fixed_params = dict(fixed_params or {})
    fam = _family(family, fixed_params)
    names = [ax.name for ax in grid]
    for k, name in enumerate(names):  # a cell reports the values its state is built at
        if name in fixed_params or name in names[:k]:
            raise ParameterRangeError(
                f"parameter '{name}' is swept and also "
                f"{'fixed' if name in fixed_params else 'swept by another axis'}")
    _grid_size(grid)
    plan = Plan(criteria, obs_spec)
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(ax.values() for ax in grid))]
    cells = [{"params": {**p, **fixed_params}, "reports": {}} for p in points]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault(fam.dims_for(cell["params"]), []).append(i)
    size = {dims: _stack_size(dims) for dims in groups}
    stacks = [idx[k:k + size[dims]] for dims, idx in groups.items()
              for k in range(0, len(idx), size[dims])]
    for idx in stacks:
        verdicts = _evaluate_points(plan, family, [points[i] for i in idx], fixed_params)
        for entry, verdict in zip(plan.entries, verdicts):
            for i, summary in zip(idx, verdict.summaries()):
                cells[i]["reports"][entry.name] = summary
    return ScanResult(family, fixed_params, list(grid), list(criteria), cells,
                      obs_spec=plan.recorded_spec(groups))


_BISECT_SAMPLES = 16
# bisection levels one stack holds: up to 2**5 - 1 = 31 midpoints
_BISECT_LEVELS = 5


def _midpoint_tree(a: float, b: float, tol: float) -> dict[int, float]:
    """The midpoints of the next ``_BISECT_LEVELS`` levels of the bisection of
    (a, b), built level by level and keyed by node: the halves of node i are
    nodes 2i + 1 (below its midpoint) and 2i + 2 (above).  A node whose
    interval is done (within ``tol``, or with no float strictly inside) is
    absent, and so are the nodes below it."""
    tree, level = {}, {0: (a, b)}
    for _ in range(_BISECT_LEVELS):
        below = {}
        for i, (x, y) in level.items():
            mid = 0.5 * (x + y)
            if y - x > tol and x < mid < y:
                tree[i] = mid
                below[2 * i + 1], below[2 * i + 2] = (x, mid), (mid, y)
        level = below
    return tree


def bisect_threshold(family: str, param: str, lo: float, hi: float, criterion: str,
                     obs_spec=None, tol: float = 1e-4,
                     fixed_params: dict | None = None) -> float:
    """Locate the verdict flip of one criterion along one parameter.

    Endpoint verdicts must differ.  The verdict pattern is spot-checked at
    16 samples and must cross exactly once (margins themselves need not be
    monotone); extra crossings raise ``NonMonotonicMarginError`` naming the
    offending sample pair.  The result is within max(``tol``, the float
    spacing at the crossing) of the crossing.

    The midpoints of the first five bisection levels depend on no verdict:
    they ride in one stack with the samples, after them, so that an error
    names an out-of-range endpoint or sample first.  Each later stack holds
    the midpoints of the next five levels.  Each tree is walked in order, so
    the result is that of bisecting one midpoint at a time.  ``param`` must
    not be among ``fixed_params``.
    """
    if not (np.isfinite([lo, hi]).all() and hi > lo):
        raise ParameterRangeError(f"need finite hi > lo, got [{lo}, {hi}]")
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterRangeError(f"tol must be finite and positive, got {tol}")
    fixed_params = dict(fixed_params or {})
    _family(family, fixed_params)
    if param in fixed_params:
        raise ParameterRangeError(f"parameter '{param}' is bisected and also fixed")
    plan = Plan([criterion], obs_spec)

    def probe(xs) -> Verdicts:
        verdict, = _evaluate_points(plan, family, [{param: float(x)} for x in xs],
                                    fixed_params)
        return verdict

    n = _BISECT_SAMPLES
    samples = np.linspace(lo, hi, n)
    a, b = float(lo), float(hi)
    tree = _midpoint_tree(a, b, tol)
    # samples 0 and 15 are lo and hi; they lead the stack, so that an error in
    # an out-of-range endpoint names that endpoint, and the first tree follows
    # the samples
    first = probe([lo, hi, *samples[1:-1], *tree.values()])
    detected = first.detected.tolist()
    margin = first.margin[:n].tolist()  # the tree's margins are never read
    spots = [(detected[k], margin[k]) for k in (0, *range(2, n), 1)]
    (v_lo, m_lo), (v_hi, m_hi) = spots[0], spots[-1]
    if v_lo == v_hi:
        raise NoCrossingError(
            f"criterion '{criterion}' gives the same verdict (detected={v_lo}) "
            f"at {param}={lo} (margin {m_lo}) and {param}={hi} (margin {m_hi})")

    crossings = [i for i in range(n - 1) if spots[i][0] != spots[i + 1][0]]
    if len(crossings) != 1:
        i = crossings[1] if len(crossings) > 1 else 0
        raise NonMonotonicMarginError(
            f"verdict crosses {len(crossings)} times at 16 samples; offending pair "
            f"{param}={samples[i]} (margin {spots[i][1]}) and "
            f"{param}={samples[i + 1]} (margin {spots[i + 1][1]})")

    detected = detected[n:]
    while tree:
        verdicts = dict(zip(tree, detected))
        # the walk meets the tree's nodes in order; it leaves the tree below its
        # last level or at a node whose interval is done
        i = 0
        while i in tree:
            if verdicts[i] == v_lo:
                a, i = tree[i], 2 * i + 2
            else:
                b, i = tree[i], 2 * i + 1
        if tree := _midpoint_tree(a, b, tol):
            detected = probe(tree.values()).detected.tolist()
    return 0.5 * (a + b)
