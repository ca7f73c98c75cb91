"""Parameter sweeps and threshold bisection over state families.

Grids are Cartesian products of axes, first axis slowest; cells are
evaluated one after another in grid order, so output is byte-identical
across runs.

State-adapted observables (the Schmidt builder) are rebuilt at every grid
point; any other observable spec is built once and reused.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
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
from .states import FAMILIES, family_dims

__all__ = [
    "GridAxis", "ScanResult", "sweep", "bisect_threshold",
    "evaluate_criterion", "DV_CRITERIA", "CV_CRITERIA",
]


@dataclass(frozen=True)
class CriterionEntry:
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


def _measure_report(which: str):
    def run(rho, obs):
        c_lur, c_tlur = _crit.entanglement_measures(rho, obs)
        value = c_lur if which == "c_lur" else c_tlur
        from .report import make_report
        return make_report(which, value, 0.0, value,
                           {"c_lur": c_lur, "c_tlur": c_tlur})
    return _need_obs(which, run)


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
          _need_obs("corollary1",
                    lambda rho, obs: _crit.eval_corollary1(
                        rho, *_crit.loo_bases_from_set(obs))))
_register("nonlinear_witness", True, "LOO witness without purity term",
          _need_obs("nonlinear_witness",
                    lambda rho, obs: _crit.eval_nonlinear_witness(
                        rho, *_crit.loo_bases_from_set(obs))))
_register("ppt", False, "negative partial transpose",
          lambda rho, obs: _crit.eval_ppt(rho))
_register("ccnr", False, "realignment trace norm > 1",
          lambda rho, obs: _crit.eval_ccnr(rho))
_register("c_lur", True, "violation-normalized estimate C_LUR", _measure_report("c_lur"))
_register("c_tlur", True, "violation-normalized estimate C_TLUR", _measure_report("c_tlur"))

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
        if self.step <= 0:
            raise ParameterRangeError(f"axis '{self.name}': step must be positive")
        if self.stop < self.start:
            raise ParameterRangeError(f"axis '{self.name}': stop below start")

    def values(self) -> list[float]:
        # floor, not round, so no value passes stop when step does not divide
        # the interval; the slack absorbs round-off when it does, and the
        # clamp keeps that round-off from carrying the last value past stop
        n = int(np.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [min(self.start + i * self.step, self.stop) for i in range(n)]

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


def _summary(report: CriterionReport) -> dict:
    return {"lhs": report.lhs, "rhs": report.rhs,
            "margin": report.margin, "detected": report.detected}


def _default_obs_spec(dims: tuple[int, int]):
    return "pauli_loo_pair" if dims == (2, 2) else "schmidt_loo_pair"


def _make_point_evaluator(family: str, criteria: list[str], obs_spec,
                          fixed_params: dict, seed: int):
    """Returns (params -> {criterion: CriterionReport}) plus the resolved spec."""
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
            resolved_spec = _default_obs_spec(family_dims(family, fixed_params))
        if isinstance(resolved_spec, LocalObservableSet):
            fixed_obs = resolved_spec
        elif not spec_requires_state(resolved_spec):
            fixed_obs = observables_from_spec(
                resolved_spec, dims=family_dims(family, fixed_params),
                default_seed=seed)

    def evaluate(params: dict) -> dict:
        try:
            rho = fam.instantiate(**{**fixed_params, **params})
            obs = fixed_obs
            if needs_obs and obs is None:
                obs = observables_from_spec(resolved_spec, state=rho, default_seed=seed)
            return {e.name: e.evaluate(rho, obs) for e in entries}
        except TlurkitError as exc:
            raise type(exc)(f"{exc} (at {family} point {params})") from exc

    return evaluate, resolved_spec


def sweep(family: str, grid: list[GridAxis], criteria: list[str], obs_spec=None,
          fixed_params: dict | None = None, seed: int = 0) -> ScanResult:
    """Evaluate criteria over the Cartesian grid; deterministic cell order."""
    if not criteria:
        raise ParameterRangeError("need at least one criterion")
    if not grid:
        raise ParameterRangeError("need at least one grid axis")
    fixed_params = dict(fixed_params or {})
    evaluate, resolved_spec = _make_point_evaluator(
        family, criteria, obs_spec, fixed_params, seed)
    names = [ax.name for ax in grid]
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(ax.values() for ax in grid))]

    def cell(params: dict) -> dict:
        reports = evaluate(params)
        return {"params": {**params, **fixed_params},
                "reports": {k: _summary(v) for k, v in reports.items()}}

    cells = [cell(p) for p in points]
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
    if tol <= 0:
        raise ParameterRangeError(f"tol must be positive, got {tol}")
    evaluate, _ = _make_point_evaluator(
        family, [criterion], obs_spec, dict(fixed_params or {}), seed)

    def probe(x: float):
        rep = evaluate({param: float(x)})[criterion]
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
