import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlurkit import bisect_threshold, sweep
from tlurkit.cli import main
from tlurkit.errors import (
    DimensionMismatchError, NoCrossingError, NonMonotonicMarginError, NumericalFailureError,
    ParameterRangeError, SpecParseError, ValidationError,
)
from tlurkit.observables import SchmidtFrame, observables_from_spec, schmidt_loo_pair
from tlurkit.report import CriterionReport
from tlurkit.scan import (
    CriterionEntry, DV_CRITERIA, MAX_GRID_POINTS, GridAxis, Plan, evaluate_criterion,
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
    # an int past the float range is not finite; one inside it reads as its
    # float and meets the family's own range check
    for start, stop, step in [(0, 10**400, 1), (-10**400, 0, 1), (0, 1, 10**400)]:
        with pytest.raises(ParameterRangeError, match="must be finite"):
            GridAxis("p", start, stop, step)
    with pytest.raises(ParameterRangeError, match="seed must lie in"):
        sweep("random_separable", [GridAxis("seed", 10**20, 10**20 + 2, 1)], ["ppt"])


def test_an_int_too_long_to_print_is_refused_by_name():
    # past Python's limit on int-to-str digits, so the message shows its size
    huge = 10**5000
    shown = f"<int of {huge.bit_length()} bits>"
    cases = [
        (lambda: GridAxis("p", 0, huge, 1), f"axis 'p': stop must be finite, got {shown}"),
        (lambda: bisect_threshold("noisy_singlet", "p", 0, huge, "ppt"),
         f"need finite hi > lo, got [0, {shown}]"),
        (lambda: bisect_threshold("noisy_singlet", "p", 0, 1, "ppt", tol=huge),
         f"tol must be finite and positive, got {shown}"),
    ]
    for call, message in cases:
        with pytest.raises(ParameterRangeError) as err:
            call()
        assert str(err.value) == message


def test_a_string_or_bool_is_not_a_number_to_scan():
    cases = [
        (lambda: GridAxis("p", "0", "1", "0.5"), "axis 'p': start must be a number, got '0'"),
        (lambda: GridAxis("p", True, 1, 0.5), "axis 'p': start must be a number, got True"),
        (lambda: GridAxis("p", 0, 1, False), "axis 'p': step must be a number, got False"),
        (lambda: bisect_threshold("noisy_singlet", "p", "0", "1", "ppt"),
         "lo must be a number, got '0'"),
        (lambda: bisect_threshold("noisy_singlet", "p", 0, True, "ppt"),
         "hi must be a number, got True"),
        (lambda: bisect_threshold("noisy_singlet", "p", 0, 1, "ppt", tol="1e-4"),
         "tol must be a number, got '1e-4'"),
    ]
    for call, message in cases:
        with pytest.raises(ParameterRangeError) as err:
            call()
        assert str(err.value) == message
    # numpy scalars are numbers
    axis = GridAxis("p", np.float32(0.0), np.int64(1), np.float64(0.5))
    assert axis.values() == [0.0, 0.5, 1.0]


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
    def wiggle(p):
        return np.cos(3.0 * np.pi * p)

    def island(p):
        # detected on (0.28, 0.32), between two of 16 evenly spaced samples but
        # over two midpoints of five whole levels, and above 0.5
        return np.where((0.28 < p) & (p < 0.32) | (p > 0.5), 1.0, -1.0)

    for margin_of, pair in ((wiggle, None),
                            (island, "p=0.3125 (margin 1.0) and p=0.34375 (margin -1.0)")):
        def multi(rho, obs):
            margin = margin_of(-2.0 * rho.states[:, 1, 2].real)  # invert noisy_singlet(p)
            return CriterionReport("multi", -margin, 0.0, margin, {})

        monkeypatch.setitem(DV_CRITERIA, "multi",
                            CriterionEntry("multi", False, "test-only", multi))
        with pytest.raises(NonMonotonicMarginError) as err:
            bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "multi")
        assert "offending pair" in str(err.value)
        if pair is not None:
            assert str(err.value).startswith(
                f"verdict crosses 3 times at 33 points; offending pair {pair}")
    # along a at p = 0.997, LUR detects on (0.0578, 0.6108) and at neither end:
    # two crossings, counted before the ends' verdicts are compared
    with pytest.raises(NonMonotonicMarginError) as err:
        bisect_threshold("horodecki_noise", "a", 0.01, 0.99, "lur",
                         obs_spec="schmidt_loo_pair", fixed_params={"p": 0.997})
    assert re.fullmatch(r"verdict crosses 2 times at 33 points; offending pair "
                        r"a=0\.591875 \(margin 0\.000193190504\d*\) and "
                        r"a=0\.6225 \(margin -0\.000119686193\d*\)", str(err.value))


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
                counts["states"] += len(next(iter(args[0].values())))  # a column's length
            if limit is not None and counts[name] > limit:
                raise AssertionError(f"more than {limit} calls to {name}")
            return original(self, *args, **kwargs)
        monkeypatch.setattr(StateFamily, name, wrapper)

    counted("stack")
    counted("instantiate")
    return counts


def test_bisect_builds_two_stacks_and_no_single_state(monkeypatch):
    # one stack for the endpoints and five whole levels, whatever tol is; at tol
    # 1e-4, then one for the other 9 of the 14 levels, on the path to the
    # crossing the margins predict: 2 + 31 + 9 states, none evaluated twice
    for tol, stacks, states in ((1e-4, 2, 42), (0.3, 1, 33)):
        with monkeypatch.context() as m:
            counts = _count_builds(m)
            bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1", tol=tol)
        assert counts == {"stack": stacks, "instantiate": 0, "states": states}, tol


def test_bisect_below_the_float_spacing_stops(monkeypatch):
    _count_builds(monkeypatch, limit=30)  # it takes 5 stacks
    t = bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1", tol=1e-300)
    # the bracket is one float wide: its two sides straddle the flip
    below, above = (evaluate_criterion("corollary1", noisy_singlet(x)).detected
                    for x in (np.nextafter(t, 0.0), np.nextafter(t, 1.0)))
    assert below != above


def test_a_failing_probe_names_its_point_or_stack():
    with pytest.raises(ParameterRangeError, match=r"\(at noisy_singlet point \{'p': 1.5\}\)"):
        bisect_threshold("noisy_singlet", "p", 0.0, 1.5, "ppt")
    # su_pair is not an LOO pair: the whole first stack fails, no one state
    with pytest.raises(ValidationError, match=r"LOO bases.*\(at noisy_singlet 33-point stack\)"):
        bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1", obs_spec="su_pair")


def _same_bits(summary: dict, report) -> bool:
    """A cell's summary has the verdict, and lhs, rhs and margin to the bit, of
    a one-state report."""
    fields = ("lhs", "rhs", "margin")
    return (np.array([summary[f] for f in fields]).tobytes()
            == np.array([getattr(report, f) for f in fields]).tobytes()
            and summary["detected"] == report.detected)


def test_a_fig1_row_is_its_states_one_at_a_time_bit_for_bit():
    # the row's column path against one state per cell, on the same machine
    fam, frame = FAMILIES["horodecki_noise"], SchmidtFrame(3, 3)
    result = sweep("horodecki_noise", [GridAxis("a", 0.05, 0.05, 0.05),
                                       GridAxis("p", 0.0, 1.0, 0.01)],
                   ["lur", "tlur"], obs_spec="schmidt_loo_pair")
    assert len(result.cells) == 101
    for cell in result.cells:
        rho = fam.instantiate(**cell["params"])
        for name in ("lur", "tlur"):
            assert _same_bits(cell["reports"][name], evaluate_criterion(name, rho, frame))


def test_a_bisection_probe_stack_is_its_states_one_at_a_time_bit_for_bit(monkeypatch):
    # each probe stack's p column and the verdicts the bisection read on it
    columns, seen, stack, evaluate = [], [], StateFamily.stack, Plan.evaluate

    def stack_columns(self, cols, fixed=None):
        columns.append(cols["p"].tolist())
        return stack(self, cols, fixed)

    def evaluate_seen(self, rho):
        seen.append(evaluate(self, rho)[0])
        return seen[-1:]

    monkeypatch.setattr(StateFamily, "stack", stack_columns)
    monkeypatch.setattr(Plan, "evaluate", evaluate_seen)
    bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "corollary1", tol=1e-4)
    monkeypatch.undo()
    assert [len(ps) for ps in columns] == [33, 9]
    for ps, verdicts in zip(columns, seen, strict=True):
        for p, summary in zip(ps, verdicts.summaries()):
            one = evaluate_criterion("corollary1", FAMILIES["noisy_singlet"].instantiate(p=p))
            assert _same_bits(summary, one)


def _stack_sizes(monkeypatch) -> list[int]:
    """The number of states of each stack built, in order."""
    sizes, stack = [], StateFamily.stack

    def counted(self, cols, fixed=None):
        sizes.append(len(next(iter(cols.values()))))
        return stack(self, cols, fixed)

    monkeypatch.setattr(StateFamily, "stack", counted)
    return sizes


def _register_step(monkeypatch, below: float, above: float) -> str:
    """A test-only criterion on noisy_singlet whose margin is ``below`` up to
    p = 1/e and ``above`` past it: its interpolated guess is the bracket's
    midpoint, wherever the flip lies."""
    def step(rho, obs):
        p = -2.0 * rho.states[..., 1, 2].real  # invert noisy_singlet(p), state by state
        margin = np.where(p > 1 / np.e, above, below)
        return CriterionReport("step", -margin, 0.0, margin, {})

    monkeypatch.setitem(DV_CRITERIA, "step", CriterionEntry("step", False, "test-only", step))
    return "step"


@pytest.mark.parametrize("step, tol, stacks", [
    (1.0, 1e-4, 7), (1.0, 1e-9, 12), (1.0, 1e-300, 26), (np.inf, 1e-4, 6),
], ids=["unit-1e-4", "unit-1e-9", "unit-1e-300", "inf-1e-4"])
def test_a_later_stack_is_the_path_to_the_guessed_crossing(monkeypatch, step, tol, stacks):
    # a margin of -step up to the flip and +step past it: a unit step's guess is
    # the bracket's midpoint, wherever the flip lies, and an infinite one gives
    # no finite guess; each path still takes the walk at least one level down,
    # and the walk reads bisection's midpoints
    criterion = _register_step(monkeypatch, -step, step)
    args = ("noisy_singlet", "p", 0.0, 1.0, criterion)
    expected = oracle_bisect(*args, tol)
    sizes = _stack_sizes(monkeypatch)
    assert bisect_threshold(*args, tol=tol) == expected
    assert len(sizes) == stacks and sizes[0] == 33 and max(sizes[1:]) <= 31
    assert sizes[1:] == sorted(sizes[1:], reverse=True)
    if step == np.inf:
        assert sizes == [33, 9, 8, 7, 3, 1]


@pytest.mark.parametrize("a", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("criterion", ["lur", "tlur", "ccnr"])
def test_fig1_bisections_take_one_windowed_stack_and_a_tail(monkeypatch, a, criterion):
    # the default set of a 3x3 state is its Schmidt frame; the second stack is
    # the path to the guessed crossing, and the walk ends in it: five whole
    # levels a stack would take 33 + 31 + 31 + 3 states
    fixed = {"a": a}
    expected = oracle_bisect("horodecki_noise", "p", 0.9, 1.0, criterion, 1e-6, fixed)
    sizes = _stack_sizes(monkeypatch)
    got = bisect_threshold("horodecki_noise", "p", 0.9, 1.0, criterion, tol=1e-6,
                           fixed_params=fixed)
    assert got == expected
    assert sizes == [33, 12]


def test_an_integer_parameter_is_refused_by_name_before_any_state(monkeypatch, capsys):
    # the first midpoint of [1, 64] is 32.5, a point no caller gave
    counts = _count_builds(monkeypatch)
    with pytest.raises(ParameterRangeError, match="'n_terms' of family 'random_separable'"):
        bisect_threshold("random_separable", "n_terms", 1, 64, "ccnr")
    code = main(["bisect", "--family", "random_separable", "--param", "n_terms",
                 "--lo", "1", "--hi", "64", "--criterion", "ccnr"])
    assert code == 2 and "'n_terms' of family 'random_separable'" in capsys.readouterr().err
    assert counts["stack"] == counts["instantiate"] == 0
    assert FAMILIES["random_separable"].integers == {"dim_a", "dim_b", "n_terms", "seed"}
    assert FAMILIES["horodecki_noise"].integers == frozenset()


def test_bisect_validates_interval():
    with pytest.raises(ParameterRangeError):
        bisect_threshold("noisy_singlet", "p", 0.8, 0.2, "ppt")
    with pytest.raises(ParameterRangeError):
        bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "ppt", tol=0.0)
    with pytest.raises(ParameterRangeError, match="need finite hi > lo"):
        bisect_threshold("noisy_singlet", "p", 0, 10**400, "ppt")
    with pytest.raises(ParameterRangeError, match="tol must be finite"):
        bisect_threshold("noisy_singlet", "p", 0, 1, "ppt", tol=10**400)
    with pytest.raises(ParameterRangeError, match=r"p must lie in .*got 1e\+20"):
        bisect_threshold("noisy_singlet", "p", 0, 10**20, "ppt")


def test_a_bad_set_is_named_before_any_state_is_built(monkeypatch):
    # a sweep or a bisection resolves each bipartition's set first: its error is
    # the spec's own, field and all, and a set of other dimensions is refused
    # even when no criterion reads it
    built = []
    monkeypatch.setattr(StateFamily, "stack", lambda *args: built.append(args))
    runs = (lambda obs: sweep("noisy_singlet", [GridAxis("p", 0.0, 1.0, 0.5)], ["ppt"], obs),
            lambda obs: bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "ppt", obs))
    for run in runs:
        with pytest.raises(SpecParseError) as err:
            run({"builder": "zzz"})
        assert (str(err.value), err.value.field) == ("builder: unknown builder 'zzz'", "builder")
        with pytest.raises(DimensionMismatchError,
                           match=r"^observables act on \(3,2\) but state has \(2,2\)$"):
            run({"builder": "loo_pair", "params": {"dim_a": 3}})
    assert built == []


def test_an_annotated_error_keeps_its_type_and_attributes(monkeypatch):
    # a failing point's error gains the point in its message, and keeps its
    # type, its state index, a spec error's field and a numerical best value
    def matrix(p):  # a trace of 2 at p = 0.5 only
        return np.where(p == 0.5, 2.0, 1.0)[:, None, None] * np.eye(4) / 4

    monkeypatch.setitem(FAMILIES, "trace_test",
                        StateFamily("trace_test", (2, 2), {"p": (0.0, 1.0)}, matrix))
    grid = [GridAxis("p", 0.0, 1.0, 0.25)]
    with pytest.raises(ValidationError) as err:
        sweep("trace_test", grid, ["ppt"])
    assert type(err.value) is ValidationError and err.value.state == 2
    assert str(err.value).endswith("(at trace_test point {'p': 0.5})")
    for error, attrs in ((SpecParseError("bad entry", field="opsA[1]"), {"field": "opsA[1]"}),
                         (NumericalFailureError("stalled", best_value=0.25),
                          {"best_value": 0.25})):
        def fail(rho, obs, error=error):
            raise error

        monkeypatch.setitem(DV_CRITERIA, "fail", CriterionEntry("fail", False, "test-only", fail))
        with pytest.raises(type(error)) as err:
            sweep("noisy_singlet", grid, ["fail"])
        assert type(err.value) is type(error) and err.value.state is None
        assert {key: getattr(err.value, key) for key in attrs} == attrs
        assert str(err.value).endswith("(at noisy_singlet 5-point stack)")


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
        which = spec or ("pauli_loo_pair" if rho.dims == (2, 2) else "schmidt_loo_pair")
        # the state's Schmidt operators, an oracle apart from the sweep's frame
        obs = (schmidt_loo_pair(rho) if which == "schmidt_loo_pair"
               else observables_from_spec(which, dims=rho.dims))
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


def test_a_spec_no_criterion_reads_is_still_checked_and_reads_no_record(monkeypatch):
    # a bad spec names its field though only ppt runs; a good one is resolved
    # per bipartition but no record is read, and the result is unchanged
    grid = [GridAxis("p", 0.0, 1.0, 0.5)]
    for run in (lambda spec: sweep("noisy_singlet", grid, ["ppt", "ccnr"], obs_spec=spec),
                lambda spec: bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "ppt",
                                              obs_spec=spec)):
        for spec in ("nonsense", {"builder": "zzz"}):
            with pytest.raises(SpecParseError, match="^builder: unknown builder"):
                run(spec)
    monkeypatch.setattr("tlurkit.observables.Moments",
                        lambda *args: pytest.fail("a record was read"))
    plain = sweep("noisy_singlet", grid, ["ppt", "ccnr"])
    result = sweep("noisy_singlet", grid, ["ppt", "ccnr"], obs_spec="loo_pair")
    assert result.cells == plain.cells and result.obs_spec == "loo_pair"


def test_evaluate_criterion_defaults_to_the_set_of_the_bipartition():
    rho = noisy_singlet(0.5)
    assert evaluate_criterion("tlur", rho) == evaluate_criterion("tlur", rho, _pauli())
    assert evaluate_criterion("tlur", rho, "loo_pair") \
        == evaluate_criterion("tlur", rho, observables_from_spec("loo_pair", dims=rho.dims))
    with pytest.raises(ParameterRangeError, match="unknown criterion 'nope'"):
        evaluate_criterion("nope", rho)


def test_a_sweep_of_numpy_scalars_serialises_as_its_python_numbers():
    f32 = np.float32  # 0, 0.5 and 1 are exact in float32
    cases = [  # (family, a run given numpy scalars, the same run given Python numbers)
        ("random_separable", (GridAxis("seed", 0, 2, 1), {"dim_a": np.int64(2)}),
         (GridAxis("seed", 0, 2, 1), {"dim_a": 2})),
        ("horodecki_noise", (GridAxis("p", f32(0), f32(1), f32(0.5)), {"a": 0.5}),
         (GridAxis("p", 0.0, 1.0, 0.5), {"a": 0.5})),
        ("horodecki_noise", (GridAxis("p", 0.0, 1.0, 0.5), {"a": f32(0.5)}),
         (GridAxis("p", 0.0, 1.0, 0.5), {"a": 0.5})),
    ]
    for family, *runs in cases:
        given, python = (sweep(family, [axis], ["ppt"], fixed_params=fixed).to_json()
                         for axis, fixed in runs)
        assert given == python
