"""Parameter sweeps and threshold bisection over state families.

Grids are Cartesian products of axes, first axis slowest; cells come out
in grid order, so output is byte-identical across runs.

A sweep evaluates its grid as one batch: the states of one bipartition are
built as one ``DensityStack`` and validated in one pass, state-adapted
observables (the Schmidt builder) are built for the whole stack by one
batched SVD, and each criterion runs once on the stack.  A stack whose
arrays would pass 32 MiB (many states of d_A, d_B >= 6) is split into
several, so memory stays bounded.  Any other observable spec is built once
and reused.  A bisection probes one state at a time: the one-state case of
the same evaluators.
"""

from __future__ import annotations

import itertools
import json
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
from .report import CriterionReport
from .states import FAMILIES

__all__ = [
    "GridAxis", "ScanResult", "sweep", "bisect_threshold",
    "evaluate_criterion", "DV_CRITERIA", "CV_CRITERIA",
]


@dataclass(frozen=True)
class CriterionEntry:
    """``evaluate(rho, obs)`` gives the ``CriterionReport`` of a
    ``DensityMatrix``, or the ``Verdicts`` of a ``DensityStack``."""

    name: str
    needs_obs: bool
    description: str
    evaluate: Callable


def _need_obs(name, fn):
    def run(rho, obs):
        if obs is None:
            raise ParameterRangeError(f"criterion '{name}' needs an observable set")
        return fn(rho, obs)
    return run


DV_CRITERIA: dict[str, CriterionEntry] = {}


def _register(name, needs_obs, description, fn):
    DV_CRITERIA[name] = CriterionEntry(name, needs_obs, description, fn)


_register("lur", True, "joint variance sum vs U_A + U_B",
          _need_obs("lur", _crit.eval_lur))
_register("tlur", True, "joint variance sum vs U_A + U_B + M^2",
          _need_obs("tlur", _crit.eval_tlur))
_register("tlur_dual", True, "upper bound U_A + U_B + (sqrt+sqrt)^2",
          _need_obs("tlur_dual", _crit.eval_tlur_dual))
_register("lemma1", True, "sqrt(excess product) +/- covariance sum >= 0",
          _need_obs("lemma1", _crit.eval_lemma1))
_register("corollary1", True, "LOO witness with purity term",
          _need_obs("corollary1", _crit.eval_corollary1))
_register("nonlinear_witness", True, "LOO witness without purity term",
          _need_obs("nonlinear_witness", _crit.eval_nonlinear_witness))
_register("ppt", False, "negative partial transpose",
          lambda rho, obs: _crit.eval_ppt(rho))
_register("ccnr", False, "realignment trace norm > 1",
          lambda rho, obs: _crit.eval_ccnr(rho))
_register("c_lur", True, "violation-normalized estimate C_LUR",
          _need_obs("c_lur", lambda rho, obs: _crit.eval_measure(rho, obs, "c_lur")))
_register("c_tlur", True, "violation-normalized estimate C_TLUR",
          _need_obs("c_tlur", lambda rho, obs: _crit.eval_measure(rho, obs, "c_tlur")))

CV_CRITERIA: dict[str, CriterionEntry] = {
    "duan": CriterionEntry("duan", False, "Var(u)+Var(v) vs a^2 + 1/a^2",
                           lambda state, a: _cv.eval_duan(state, a)),
    "corollary2": CriterionEntry("corollary2", False,
                                 "Var(u)+Var(v) vs a^2 + 1/a^2 + M^2",
                                 lambda state, a: _cv.eval_corollary2(state, a)),
}


def evaluate_criterion(name: str, rho, obs=None) -> CriterionReport:
    entry = DV_CRITERIA.get(name)
    if entry is None:
        raise ParameterRangeError(
            f"unknown criterion '{name}'; known: {sorted(DV_CRITERIA)}")
    return entry.evaluate(rho, obs)


def resolve_workers() -> int:
    """Always 1: sweeps run in the calling thread.

    Kept only for the benchmark's info line (``perfbench/workloads.py``),
    which reads it; remove it with the next change to the benchmark.
    """
    return 1


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
        # floor, not round, so no value passes stop when step does not divide
        # the interval; the slack absorbs round-off when it does.  Each value
        # is rounded to the decimal places of start and step (so 3 * 0.05 is
        # 0.15, not 0.15000000000000002) and clamped to stop.
        n = int(np.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        places = max(0, -min(Decimal(repr(float(x))).as_tuple().exponent
                             for x in (self.start, self.step)))
        return [min(round(self.start + i * self.step, places), self.stop) for i in range(n)]

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "stop": self.stop,
                "step": self.step}


@dataclass
class ScanResult:
    family: str
    fixed_params: dict
    axes: list[GridAxis]
    criteria: list[str]
    cells: list[dict]
    obs_spec: object = None
    seed: int = 0
    thresholds: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "fixed_params": dict(self.fixed_params),
            "axes": [ax.to_dict() for ax in self.axes],
            "criteria": list(self.criteria),
            "obs": self.obs_spec,
            "seed": self.seed,
            "cells": self.cells,
        }
        if self.thresholds is not None:
            out["thresholds"] = self.thresholds
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def csv_rows(self):
        """One row per (grid point, criterion), flat for plotting tools."""
        param_names = [ax.name for ax in self.axes] + sorted(self.fixed_params)
        header = ["family"] + param_names + ["criterion", "lhs", "rhs", "margin", "detected"]
        yield header
        for cell in self.cells:
            for name in self.criteria:
                rep = cell["reports"][name]
                yield ([self.family]
                       + [repr(float(cell["params"][p])) for p in param_names]
                       + [name, repr(rep["lhs"]), repr(rep["rhs"]),
                          repr(rep["margin"]), str(rep["detected"]).lower()])

    def to_csv(self) -> str:
        return "".join(",".join(row) + "\n" for row in self.csv_rows())


def _default_obs_spec(dims: tuple[int, int]):
    return "pauli_loo_pair" if dims == (2, 2) else "schmidt_loo_pair"


def _plan(family: str, criteria: list[str], obs_spec, fixed_params: dict, seed: int):
    """Checks the family, the criteria and the fixed parameters; returns the
    family, the criteria's entries, the resolved observable spec and a
    function giving the observables for a state or a stack of states."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise ParameterRangeError(f"unknown state family '{family}'")
    entries = []
    for name in criteria:
        entry = DV_CRITERIA.get(name)
        if entry is None:
            raise ParameterRangeError(
                f"unknown criterion '{name}'; known: {sorted(DV_CRITERIA)}")
        entries.append(entry)
    fam.check_params(fixed_params)  # before the fixed observable set is built from them
    needs_obs = any(e.needs_obs for e in entries)
    resolved_spec = obs_spec
    fixed_obs = None
    if needs_obs:
        if resolved_spec is None:
            resolved_spec = _default_obs_spec(fam.dims_for(fixed_params))
        if isinstance(resolved_spec, LocalObservableSet):
            fixed_obs = resolved_spec
        elif not spec_requires_state(resolved_spec):
            fixed_obs = observables_from_spec(
                resolved_spec, dims=fam.dims_for(fixed_params), default_seed=seed)

    def observables(rho):
        if not needs_obs or fixed_obs is not None:
            return fixed_obs
        return observables_from_spec(resolved_spec, state=rho, default_seed=seed)

    return fam, entries, resolved_spec, observables


# working set of one stack; Fig. 1's 3x3 grid is one stack, 16x16 states go two at a time
_STACK_BYTES = 32 << 20


def _stack_size(dims: tuple[int, int]) -> int:
    """States per stack: about 48 bytes for each entry of the moment rows of a
    Schmidt set, (2n + 1) x (d_A^2 + d_B^2) with n = max(d_A^2, d_B^2), the
    largest arrays a stack holds for each state."""
    da, db = dims
    n = max(da, db) ** 2
    return max(1, _STACK_BYTES // (48 * (2 * n + 1) * (da * da + db * db)))


def sweep(family: str, grid: list[GridAxis], criteria: list[str], obs_spec=None,
          fixed_params: dict | None = None, seed: int = 0) -> ScanResult:
    """Evaluate criteria over the Cartesian grid; deterministic cell order.

    The points of each bipartition (one, unless an axis changes the
    dimensions) form one stack, split only where its arrays would pass
    32 MiB: each criterion runs once on each stack.
    """
    if not criteria:
        raise ParameterRangeError("need at least one criterion")
    if not grid:
        raise ParameterRangeError("need at least one grid axis")
    fixed_params = dict(fixed_params or {})
    fam, entries, resolved_spec, observables = _plan(
        family, criteria, obs_spec, fixed_params, seed)
    names = [ax.name for ax in grid]
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(ax.values() for ax in grid))]
    merged = [{**fixed_params, **p} for p in points]
    cells = [{"params": {**p, **fixed_params}, "reports": {}} for p in points]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, params in enumerate(merged):
        groups.setdefault(fam.dims_for(params), []).append(i)
    size = {dims: _stack_size(dims) for dims in groups}
    stacks = [idx[k:k + size[dims]] for dims, idx in groups.items()
              for k in range(0, len(idx), size[dims])]
    for idx in stacks:
        try:
            states = fam.stack([merged[i] for i in idx])
            obs = observables(states)
            verdicts = [e.evaluate(states, obs) for e in entries]
        except TlurkitError as exc:
            where = (f"point {points[idx[exc.state]]}" if exc.state is not None
                     else f"{len(idx)}-point stack")
            raise type(exc)(f"{exc} (at {family} {where})") from exc
        for entry, verdict in zip(entries, verdicts):
            for i, summary in zip(idx, verdict.summaries()):
                cells[i]["reports"][entry.name] = summary
    spec_out = resolved_spec if not isinstance(resolved_spec, LocalObservableSet) else "explicit"
    return ScanResult(family, fixed_params, list(grid), list(criteria), cells,
                      obs_spec=spec_out, seed=seed)


_BISECT_SAMPLES = 16


def bisect_threshold(family: str, param: str, lo: float, hi: float, criterion: str,
                     obs_spec=None, tol: float = 1e-4,
                     fixed_params: dict | None = None, seed: int = 0) -> float:
    """Locate the verdict flip of one criterion along one parameter.

    Endpoint verdicts must differ.  The verdict pattern is spot-checked at
    16 samples and must cross exactly once (margins themselves need not be
    monotone); extra crossings raise ``NonMonotonicMarginError`` naming the
    offending sample pair.  The result is within ``tol`` of the crossing.
    """
    if not hi > lo:
        raise ParameterRangeError(f"need hi > lo, got [{lo}, {hi}]")
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterRangeError(f"tol must be finite and positive, got {tol}")
    fixed_params = dict(fixed_params or {})
    fam, (entry,), _, observables = _plan(family, [criterion], obs_spec, fixed_params, seed)

    def probe(x: float):
        params = {param: float(x)}
        try:
            rho = fam.instantiate(**{**fixed_params, **params})
            rep = entry.evaluate(rho, observables(rho))
        except TlurkitError as exc:
            raise type(exc)(f"{exc} (at {family} point {params})") from exc
        return rep.detected, rep.margin

    v_lo, m_lo = probe(lo)
    v_hi, m_hi = probe(hi)
    if v_lo == v_hi:
        raise NoCrossingError(
            f"criterion '{criterion}' gives the same verdict (detected={v_lo}) "
            f"at {param}={lo} (margin {m_lo}) and {param}={hi} (margin {m_hi})")

    samples = np.linspace(lo, hi, _BISECT_SAMPLES)
    verdicts = [probe(x) for x in samples]
    crossings = [i for i in range(len(samples) - 1)
                 if verdicts[i][0] != verdicts[i + 1][0]]
    if len(crossings) != 1:
        i = crossings[1] if len(crossings) > 1 else 0
        raise NonMonotonicMarginError(
            f"verdict crosses {len(crossings)} times at 16 samples; offending pair "
            f"{param}={samples[i]} (margin {verdicts[i][1]}) and "
            f"{param}={samples[i + 1]} (margin {verdicts[i + 1][1]})")

    a, b = float(lo), float(hi)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if probe(mid)[0] == v_lo:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
