import threading

import numpy as np
import pytest

from tlurkit import bisect_threshold, sweep
from tlurkit.errors import (
    NoCrossingError, NonMonotonicMarginError, ParameterRangeError,
)
from tlurkit.report import make_report
from tlurkit.scan import (
    CriterionEntry, DV_CRITERIA, GridAxis, evaluate_criterion, resolve_workers,
)
from tlurkit.states import noisy_singlet


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
        p = -2.0 * np.asarray(rho.matrix)[1, 2].real  # invert noisy_singlet(p)
        margin = np.cos(3.0 * np.pi * p)
        return make_report("wiggle", -margin, 0.0, margin)

    monkeypatch.setitem(DV_CRITERIA, "wiggle",
                        CriterionEntry("wiggle", False, "test-only", wiggle))
    with pytest.raises(NonMonotonicMarginError) as err:
        bisect_threshold("noisy_singlet", "p", 0.0, 1.0, "wiggle")
    assert "offending pair" in str(err.value)


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
