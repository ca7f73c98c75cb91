import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlurkit import bisect_threshold, sweep
from tlurkit.errors import (
    NoCrossingError, NonMonotonicMarginError, ParameterRangeError, ValidationError,
)
from tlurkit.observables import observables_from_spec
from tlurkit.report import Verdicts
from tlurkit.scan import (
    CriterionEntry, DV_CRITERIA, MAX_GRID_POINTS, GridAxis, evaluate_criterion,
    resolve_workers,
)
from tlurkit.states import FAMILIES, StateFamily, noisy_singlet

from helpers import oracle_bisect


def test_grid_axis_values():
    assert len(GridAxis("a", 0.05, 0.95, 0.05).values()) == 19
    assert len(GridAxis("p", 0.0, 1.0, 0.01).values()) == 101
    assert GridAxis("p", 0.0, 1.0, 1.0).values() == [0.0, 1.0]
    with pytest.raises(ParameterRangeError):
        GridAxis("p", 0.0, 1.0, -0.1)
    with pytest.raises(ParameterRangeError):
        GridAxis("p", 1.0, 0.0, 0.1)


def test_grid_axis_stops_short_when_step_does_not_divide():
    axis = GridAxis("p", 0.0, 1.0, 0.35)
    assert axis.values() == [0.0, 0.35, 0.7]
    result = sweep("horodecki_noise", [axis], ["ppt"], fixed_params={"a": 0.5})
    assert [c["params"]["p"] for c in result.cells] == [0.0, 0.35, 0.7]
    # 0.09 + 13 * 0.07 rounds to 1.0000000000000002: clamped to stop
    axis = GridAxis("p", 0.09, 1.0, 0.07)
    assert len(axis.values()) == 14 and axis.values()[-1] == 1.0
    result = sweep("horodecki_noise", [axis], ["ppt"], fixed_params={"a": 0.5})
    assert result.cells[-1]["params"]["p"] == 1.0
    assert GridAxis("a", 0.05, 0.95, 0.05).values()[-1] == 0.95
    # accumulated float error does not leak: 3 * 0.05 is 0.15, 57 * 0.01 is 0.57
    for start, stop, step in [(0.0, 1.0, 0.01), (0.05, 0.95, 0.05)]:
        values = GridAxis("p", start, stop, step).values()
        assert max(len(repr(v)) for v in values) <= len(repr(step)), values
    assert GridAxis("a", 0.05, 0.95, 0.05).values()[2] == 0.15


def test_a_grid_above_the_cap_is_refused_before_it_is_built():
    assert len(GridAxis("n", 1, MAX_GRID_POINTS, 1).values()) == MAX_GRID_POINTS
    with pytest.raises(ParameterRangeError, match=f"has {MAX_GRID_POINTS + 1} points"):
        GridAxis("n", 0, MAX_GRID_POINTS, 1).values()
    fine = GridAxis("p", 0.0, 1.0, 1e-12)
    with pytest.raises(ParameterRangeError, match=r"\['p'\] has 1000000000001 points"):
        fine.values()
    with pytest.raises(ParameterRangeError, match=r"\['p'\] has 1000000000001 points"):
        sweep("noisy_singlet", [fine], ["ppt"])
    # each axis fits, their product does not
    a, p = GridAxis("a", 0.0, 1.0, 1e-3), GridAxis("p", 0.0, 1.0, 1e-3)
    assert len(a.values()) == len(p.values()) == 1001
    with pytest.raises(ParameterRangeError, match=r"\['a', 'p'\] has 1002001 points"):
        sweep("horodecki_noise", [a, p], ["ppt"])


def test_sweep_noisy_singlet_endpoints():
    result = sweep("noisy_singlet", [GridAxis("p", 0.0, 1.0, 1.0)], ["corollary1"])
    assert result.obs_spec == "pauli_loo_pair"  # default for two qubits
    cells = result.cells
    assert len(cells) == 2
    assert not cells[0]["reports"]["corollary1"]["detected"]
    assert cells[1]["reports"]["corollary1"]["detected"]


def test_sweep_horodecki_ppt_never_detects():
    result = sweep("horodecki", [GridAxis("a", 0.1, 0.9, 0.1)], ["ppt"])
    assert len(result.cells) == 9
    assert not any(c["reports"]["ppt"]["detected"] for c in result.cells)


def test_sweep_validates_inputs():
    with pytest.raises(ParameterRangeError):
        sweep("noisy_singlet", [GridAxis("p", 0.0, 1.0, 0.5)], [])
    with pytest.raises(ParameterRangeError):
        sweep("noisy_singlet", [], ["ppt"])
    with pytest.raises(ParameterRangeError):
        sweep("atlantis", [GridAxis("p", 0.0, 1.0, 0.5)], ["ppt"])
    with pytest.raises(ParameterRangeError):
        sweep("noisy_singlet", [GridAxis("p", 0.0, 1.0, 0.5)], ["nope"])


def test_sweep_propagates_errors_with_coordinates():
    with pytest.raises(ParameterRangeError) as err:
        sweep("horodecki", [GridAxis("a", 0.0, 1.0, 0.5)], ["ppt"])
    assert "point" in str(err.value)


def test_fixed_params_checked_before_the_fixed_set_is_built(monkeypatch):
    def no_set(*args, **kwargs):
        raise AssertionError("an observable set was built from unchecked parameters")

    monkeypatch.setattr("tlurkit.scan.observables_from_spec", no_set)
    with pytest.raises(ParameterRangeError) as err:
        sweep("random_separable", [GridAxis("seed", 0, 1, 1)], ["lur"],
              obs_spec="su_pair", fixed_params={"dim_a": 40})
    assert "dim_a" in str(err.value)


def test_sweep_deterministic_across_runs():
    grid = [GridAxis("a", 0.2, 0.8, 0.3), GridAxis("p", 0.9, 1.0, 0.05)]
    outputs = []
    for _ in range(2):
        result = sweep("horodecki_noise", grid, ["lur", "tlur"],
                       obs_spec="schmidt_loo_pair")
        outputs.append((result.to_json().encode(), result.to_csv().encode()))
    assert outputs[0] == outputs[1]


def test_sweep_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    result = sweep("noisy_singlet", [GridAxis("p", 0.0, 1.0, 1.0)], ["ppt"])
    assert len(result.cells) == 2


def test_sweep_csv_schema():
    result = sweep("noisy_singlet", [GridAxis("p", 0.0, 1.0, 0.5)],
                   ["ppt", "corollary1"])
    rows = list(result.csv_rows())
    assert rows[0] == ["family", "p", "criterion", "lhs", "rhs", "margin", "detected"]
    assert len(rows) == 1 + 3 * 2
    assert rows[1][0] == "noisy_singlet"
    assert rows[1][-1] in ("true", "false")


def _reference_csv(result) -> str:
    """The CSV of a result, each field formatted on its own with ``repr``."""
    names = [ax.name for ax in result.axes] + sorted(result.fixed_params)
    rows = [["family", *names, "criterion", "lhs", "rhs", "margin", "detected"]]
    for cell in result.cells:
        for criterion in result.criteria:
            rep = cell["reports"][criterion]
            rows.append([result.family] + [repr(float(cell["params"][n])) for n in names]
                        + [criterion] + [repr(rep[f]) for f in ("lhs", "rhs", "margin")]
                        + [str(rep["detected"]).lower()])
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("family,grid,names,fixed", [
    ("horodecki_noise", [GridAxis("a", 0.05, 0.95, 0.45), GridAxis("p", 0.99, 1.0, 0.005)],
     ["lur", "tlur", "ccnr", "ppt"], None),
    ("horodecki_noise", [GridAxis("p", 0.0, 1.0, 0.25)], ["tlur", "lemma1", "c_tlur"],
     {"a": 0.35}),
    ("random_separable", [GridAxis("seed", 0, 2, 1), GridAxis("dim_b", 2, 3, 1)],
     ["lur", "corollary1", "ppt"], {"n_terms": 2, "dim_a": 3}),
])
def test_sweep_csv_equals_a_field_by_field_formatter(family, grid, names, fixed):
    result = sweep(family, grid, names, fixed_params=fixed)
    text = result.to_csv()
    assert text == _reference_csv(result)
    assert list(result.csv_rows()) == [line.split(",") for line in text.splitlines()]


def test_a_parameter_is_swept_or_fixed_never_both():
    axis = GridAxis("p", 0.0, 1.0, 0.5)
    for grid, fixed in (([axis], {"a": 0.5, "p": 0.3}), ([axis, axis], {"a": 0.5})):
        with pytest.raises(ParameterRangeError) as err:
            sweep("horodecki_noise", grid, ["ppt"], fixed_params=fixed)
        assert "parameter 'p'" in str(err.value)
    with pytest.raises(ParameterRangeError) as err:
        bisect_threshold("horodecki_noise", "p", 0.0, 1.0, "ccnr",
                         fixed_params={"a": 0.5, "p": 0.3})
    assert "parameter 'p'" in str(err.value)


def test_sweep_grid_order_row_major():
    grid = [GridAxis("a", 0.2, 0.4, 0.2), GridAxis("p", 0.0, 1.0, 1.0)]
    result = sweep("horodecki_noise", grid, ["ppt"])
    points = [(c["params"]["a"], c["params"]["p"]) for c in result.cells]
    assert points == [(0.2, 0.0), (0.2, 1.0), (0.4, 0.0), (0.4, 1.0)]


def test_bisect_witness_threshold():
    t = bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "nonlinear_witness")
    assert abs(t - 0.25) < 5e-3


def test_bisect_corollary1_threshold():
    t = bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1")
    assert abs(t - 0.221) < 5e-3


def test_bisect_ppt_threshold_approaches_zero():
    t = bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "ppt")
    assert 0.0 < t < 1e-3


def test_bisect_result_is_bracketed():
    tol = 1e-4
    t = bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "nonlinear_witness", tol=tol)
    below = evaluate_criterion("nonlinear_witness", noisy_singlet(t - tol),
                               obs=_pauli())
    above = evaluate_criterion("nonlinear_witness", noisy_singlet(t + tol),
                               obs=_pauli())
    assert below.detected != above.detected


def _pauli():
    from tlurkit import pauli_loo_pair

    return pauli_loo_pair()


def test_bisect_no_crossing():
    with pytest.raises(NoCrossingError):
        bisect_threshold("horodecki", "a", 0.1, 0.9, "ppt")


def test_bisect_rejects_multiple_crossings(monkeypatch):
    def wiggle(rho, obs):
        p = -2.0 * rho.states[:, 1, 2].real  # invert noisy_singlet(p), state by state
        margin = np.cos(3.0 * np.pi * p)
        return Verdicts("wiggle", -margin, 0.0, margin, {})

    monkeypatch.setitem(DV_CRITERIA, "wiggle",
                        CriterionEntry("wiggle", False, "test-only", wiggle))
    with pytest.raises(NonMonotonicMarginError) as err:
        bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "wiggle")
    assert "offending pair" in str(err.value)


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-9])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.03, 0.97)])
@pytest.mark.parametrize("criterion", ["nonlinear_witness", "corollary1", "ppt"])
def test_bisect_equals_the_sequential_bisection(criterion, lo, hi, tol):
    expected = oracle_bisect("noisy_singlet", "p", lo, hi, criterion, tol)
    if expected is None:  # ppt detects on all of [0.03, 0.97]
        with pytest.raises(NoCrossingError):
            bisect_threshold("noisy_singlet", "p", lo, hi, criterion, tol=tol)
    else:
        assert bisect_threshold("noisy_singlet", "p", lo, hi, criterion, tol=tol) == expected


@settings(max_examples=60)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True).map(sorted),
       st.floats(1e-12, 0.3), st.sampled_from(["nonlinear_witness", "corollary1", "ppt"]))
def test_bisect_on_any_subinterval_equals_the_sequential_bisection(ends, tol, criterion):
    # a tol that leaves the interval mid-tree cuts a tree short inside its stack
    lo, hi = ends
    expected = oracle_bisect("noisy_singlet", "p", lo, hi, criterion, tol)
    if expected is None:
        with pytest.raises(NoCrossingError):
            bisect_threshold("noisy_singlet", "p", lo, hi, criterion, tol=tol)
    else:
        assert bisect_threshold("noisy_singlet", "p", lo, hi, criterion, tol=tol) == expected


def test_bisect_equals_the_sequential_bisection_on_schmidt_sets():
    fixed = {"a": 0.5}
    got = bisect_threshold("horodecki_noise", "p", 0.0, 1.0, "tlur", fixed_params=fixed)
    assert got == oracle_bisect("horodecki_noise", "p", 0.0, 1.0, "tlur", 1e-4, fixed)


def _count_builds(monkeypatch, limit=None):
    """Counts of ``StateFamily.stack`` and ``instantiate`` calls, and of the
    states the stacks hold; a call past ``limit`` of either fails the test."""
    counts = {"stack": 0, "instantiate": 0, "states": 0}

    def counted(name):
        original = getattr(StateFamily, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            if name == "stack":
                counts["states"] += len(args[0])
            if limit is not None and counts[name] > limit:
                raise AssertionError(f"more than {limit} calls to {name}")
            return original(self, *args, **kwargs)
        monkeypatch.setattr(StateFamily, name, wrapper)

    counted("stack")
    counted("instantiate")
    return counts


def test_bisect_builds_three_stacks_and_no_single_state(monkeypatch):
    # one stack for the 16 samples, the endpoints among them, and the first five
    # levels, then the other 9 of the 14 levels five at a time:
    # 16 + 31 + 31 + 15 states, none evaluated twice
    counts = _count_builds(monkeypatch)
    bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1", tol=1e-4)
    assert counts == {"stack": 3, "instantiate": 0, "states": 93}


def test_bisect_below_the_float_spacing_stops(monkeypatch):
    _count_builds(monkeypatch, limit=30)  # it takes 11 stacks
    t = bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1", tol=1e-300)
    # the bracket is one float wide: its two sides straddle the flip
    below, above = (evaluate_criterion("corollary1", noisy_singlet(x)).detected
                    for x in (np.nextafter(t, 0.0), np.nextafter(t, 1.0)))
    assert below != above


def test_a_failing_probe_names_its_point_or_stack():
    with pytest.raises(ParameterRangeError, match=r"\(at noisy_singlet point \{'p': 1.5\}\)"):
        bisect_threshold("noisy_singlet", "p", 0.0, 1.5, "ppt")
    # su_pair is not an LOO pair: the whole first stack fails, no one state
    with pytest.raises(ValidationError, match=r"LOO bases.*\(at noisy_singlet 47-point stack\)"):
        bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1", obs_spec="su_pair")


def test_bisect_validates_interval():
    with pytest.raises(ParameterRangeError):
        bisect_threshold("noisy_singlet", "p", 0.8, 0.2, "ppt")
    with pytest.raises(ParameterRangeError):
        bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "ppt", tol=0.0)


def test_resolve_workers():
    assert resolve_workers() == 1


def test_sweep_fixed_params_and_measures():
    result = sweep("horodecki_noise", [GridAxis("a", 0.3, 0.7, 0.2)],
                   ["c_lur", "c_tlur"], obs_spec={"builder": "su_pair"},
                   fixed_params={"p": 1.0})
    for cell in result.cells:
        assert cell["params"]["p"] == 1.0
        assert (cell["reports"]["c_tlur"]["margin"]
                >= cell["reports"]["c_lur"]["margin"] - 1e-12)


@pytest.mark.parametrize("axis", ["dim_a", "dim_b"])
@pytest.mark.parametrize("spec", [None, "loo_pair", "su_pair"])
def test_an_axis_may_change_the_dimensions(axis, spec):
    # each bipartition gets the set built for its own dimensions
    criteria = ["lur", "tlur", "corollary1", "ppt"]
    if spec == "su_pair":  # not an LOO pair: corollary1 is undefined on it
        with pytest.raises(ValidationError, match="LOO bases"):
            sweep("random_separable", [GridAxis(axis, 2, 3, 1)], criteria, obs_spec=spec)
        criteria.remove("corollary1")
    grid = [GridAxis(axis, 2, 3, 1), GridAxis("seed", 0, 2, 1)]
    result = sweep("random_separable", grid, criteria, obs_spec=spec)
    assert [c["params"][axis] for c in result.cells] == [2, 2, 2, 3, 3, 3]
    for cell in result.cells:
        rho = FAMILIES["random_separable"].instantiate(**cell["params"])
        default = "pauli_loo_pair" if rho.dims == (2, 2) else "schmidt_loo_pair"
        obs = observables_from_spec(spec or default, state=rho)
        for name in criteria:
            rep = evaluate_criterion(name, rho, obs)
            got = cell["reports"][name]
            assert got["detected"] == rep.detected, (cell["params"], name)
            np.testing.assert_allclose([got["lhs"], got["rhs"], got["margin"]],
                                       [rep.lhs, rep.rhs, rep.margin], rtol=0, atol=1e-12)
    wide = "3x2" if axis == "dim_a" else "2x3"
    assert result.obs_spec == (spec or {"2x2": "pauli_loo_pair", wide: "schmidt_loo_pair"})


def test_a_spec_is_built_once_per_bipartition(monkeypatch):
    built = []

    def counting(spec, **kwargs):
        built.append(kwargs.get("dims"))
        return observables_from_spec(spec, **kwargs)

    monkeypatch.setattr("tlurkit.scan.observables_from_spec", counting)
    monkeypatch.setattr("tlurkit.scan._STACK_BYTES", 1)  # one state a stack
    sweep("random_separable", [GridAxis("dim_b", 2, 3, 1), GridAxis("seed", 0, 3, 1)],
          ["lur", "tlur"], obs_spec="su_pair")
    assert built == [(2, 2), (2, 3)]
    built.clear()
    bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1", tol=1e-2)
    assert built == [(2, 2)]  # the default pauli_loo_pair, for every probe


def test_evaluate_criterion_defaults_to_the_set_of_the_bipartition():
    rho = noisy_singlet(0.5)
    assert evaluate_criterion("tlur", rho) == evaluate_criterion("tlur", rho, _pauli())
    assert evaluate_criterion("tlur", rho, "loo_pair") \
        == evaluate_criterion("tlur", rho, observables_from_spec("loo_pair", state=rho))
    with pytest.raises(ParameterRangeError, match="unknown criterion 'nope'"):
        evaluate_criterion("nope", rho)
