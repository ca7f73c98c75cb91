import json

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tlurkit import (
    GaussianState, combo_variance, eval_corollary2, eval_duan,
    gaussian_from_spec, random_separable_gaussian, thermal, tmsv, vacuum,
)
from tlurkit.cvgauss import (
    OMEGA, displaced, mode_uncertainty_sum, u_coeffs, v_coeffs,
)
from tlurkit.errors import ParameterRangeError, SpecParseError, UnphysicalStateError
from tlurkit.report import DETECTION_TOL, CriterionReport


def tmsv_cov_oracle(r):
    """Covariance via the explicit symplectic matrix acting on vacuum."""
    c, s = np.cosh(r), np.sinh(r)
    sym = np.array([
        [c, 0.0, -s, 0.0],
        [0.0, c, 0.0, s],
        [-s, 0.0, c, 0.0],
        [0.0, s, 0.0, c],
    ])
    return sym @ (0.5 * np.eye(4)) @ sym.T


def test_vacuum_combo_variances():
    v = vacuum()
    assert abs(combo_variance(v, u_coeffs(1.0)) - 1.0) < 1e-12
    assert combo_variance(v, [0.0, 0.0, 0.0, 0.0]) == 0.0


def test_tmsv_matches_symplectic_oracle():
    for r in (0.3, 1.0, 2.0):
        np.testing.assert_allclose(tmsv(r).cov, tmsv_cov_oracle(r), atol=1e-12)
        assert abs(combo_variance(tmsv(r), [1, 0, 1, 0]) - np.exp(-2 * r)) < 1e-12
        assert abs(combo_variance(tmsv(r), [0, 1, 0, -1]) - np.exp(-2 * r)) < 1e-12


def test_constructors_are_physical():
    for state in (vacuum(), tmsv(1.5), thermal(2.0), thermal((1.0, 0.0)),
                  displaced(vacuum(), [1.0, -2.0, 0.5, 0.0])):
        herm = state.cov + 0.5j * OMEGA
        assert np.linalg.eigvalsh(herm).min() > -1e-9
        assert mode_uncertainty_sum(state, 1) >= 1.0 - 1e-9
        assert mode_uncertainty_sum(state, 2) >= 1.0 - 1e-9


def test_unphysical_covariances_rejected():
    with pytest.raises(UnphysicalStateError):
        GaussianState(np.zeros(4), 0.1 * np.eye(4))
    asym = 0.5 * np.eye(4)
    asym[0, 1] = 0.3
    with pytest.raises(UnphysicalStateError, match="not symmetric"):
        GaussianState(np.zeros(4), asym)
    # the tolerance of a Hermitian operator: 1e-10 times max(max |cov|, 1)
    for scale, off, ok in [(0.5, 5e-11, True), (0.5, 2e-10, False),
                           (1e3, 5e-8, True), (1e3, 2e-7, False)]:
        cov = scale * np.eye(4)
        cov[0, 1] = off
        if ok:
            GaussianState(np.zeros(4), cov)
        else:
            with pytest.raises(UnphysicalStateError, match="not symmetric"):
                GaussianState(np.zeros(4), cov)
    with pytest.raises(ParameterRangeError):
        thermal(-0.5)


def test_duan_examples():
    rep = eval_duan(vacuum(), 1.0)
    assert abs(rep.lhs - 2.0) < 1e-12 and abs(rep.rhs - 2.0) < 1e-12
    assert not rep.detected

    rep = eval_duan(tmsv(1.0), 1.0)
    assert abs(rep.lhs - 2.0 * np.exp(-2.0)) < 1e-12
    assert rep.detected

    nbar = 1.0
    rep = eval_duan(thermal((nbar, 0.0)), 1.0)
    assert abs(rep.lhs - (2.0 + 2.0 * nbar)) < 1e-12
    assert not rep.detected
    with pytest.raises(ParameterRangeError):
        eval_duan(vacuum(), 0.0)


HUGE = 10**400  # an int past the float range


@pytest.mark.parametrize("call, message", [
    (lambda: eval_duan(vacuum(), "2"), "a must be a number, got '2'"),
    (lambda: eval_corollary2(tmsv(0.5), True), "a must be a number, got True"),
    (lambda: eval_duan(vacuum(), HUGE), f"a must be finite, got {HUGE}"),
    (lambda: tmsv(True), "r must be a number, got True"),
    (lambda: tmsv("0.5"), "r must be a number, got '0.5'"),
    (lambda: thermal(True), "nbar must be a number, got True"),
    (lambda: thermal("1"), "nbar must be a number, got '1'"),
    (lambda: thermal((1, "2")), "nbar must be a number, got '2'"),
    (lambda: thermal(HUGE), f"nbar must be finite, got {HUGE}"),
    (lambda: random_separable_gaussian("3"), "seed must be a number, got '3'"),
    (lambda: random_separable_gaussian(1.5), "seed must be an integer, got 1.5"),
    (lambda: random_separable_gaussian(-1), "seed must be >= 0, got -1"),
], ids=["duan-str", "corollary2-bool", "duan-huge", "tmsv-bool", "tmsv-str", "thermal-bool",
        "thermal-str", "thermal-pair-str", "thermal-huge", "gaussian-seed-str",
        "gaussian-seed-fractional", "gaussian-seed-negative"])
def test_a_cv_argument_follows_the_one_number_rule(call, message):
    # a bool or a string is no number, and a number must be finite, as in a spec
    with pytest.raises(ParameterRangeError) as err:
        call()
    assert str(err.value) == message


def test_corollary2_examples():
    rep = eval_corollary2(tmsv(1.0), 1.0)
    assert abs(rep.components["M"]) < 1e-12
    assert abs(rep.rhs - 2.0) < 1e-12
    assert abs(rep.lhs - 2.0 * np.exp(-2.0)) < 1e-12
    assert rep.detected

    rep = eval_corollary2(thermal((1.0, 0.0)), 1.0)
    assert abs(rep.components["M"] - np.sqrt(2.0)) < 1e-12
    assert abs(rep.lhs - 4.0) < 1e-9 and abs(rep.rhs - 4.0) < 1e-9
    assert not rep.detected
    # the plain bound is loose by 2*nbar on the same state
    assert abs(eval_duan(thermal((1.0, 0.0)), 1.0).margin + 2.0) < 1e-9

    for a in (0.5, 1.0, 2.0):
        rep = eval_corollary2(vacuum(), a)
        assert abs(rep.lhs - rep.rhs) < 1e-12
        assert abs(rep.components["M"]) < 1e-12


@pytest.mark.parametrize("evaluate", [eval_duan, eval_corollary2])
@pytest.mark.parametrize("a", [1.0, -0.7, 2])
def test_a_cv_report_is_the_one_state_record(evaluate, a):
    # the record a DV criterion gives one state: Python floats and a bool that
    # JSON takes, and one summaries() row, the to_dict() values bit for bit
    rep = evaluate(tmsv(0.5), a)
    assert isinstance(rep, CriterionReport)
    values = [rep.lhs, rep.rhs, rep.margin, *rep.components.values()]
    assert all(type(v) is float for v in values) and type(rep.detected) is bool
    assert rep.detected == (rep.margin > DETECTION_TOL)
    out = json.loads(json.dumps(rep.to_dict()))
    row = {key: out[key] for key in ("lhs", "rhs", "margin", "detected")}
    assert repr(rep.summaries()) == repr([row])


def noisy_tmsv(r, nbar):
    """A two-mode squeezed vacuum with covariance tmsv(r).cov + nbar * I."""
    return GaussianState(np.zeros(4), tmsv(r).cov + nbar * np.eye(4))


GAUSSIAN_STATES = st.one_of(st.integers(0, 10**6).map(random_separable_gaussian),
                           st.builds(noisy_tmsv, st.floats(0.0, 2.0), st.floats(0.0, 0.5)))


@given(GAUSSIAN_STATES)
def test_corollary2_margin_adds_m_squared(state):
    for a in (0.7, 1.0, 1.8):
        duan = eval_duan(state, a)
        cor = eval_corollary2(state, a)
        m = cor.components["M"]
        assert cor.rhs >= duan.rhs
        assert abs(cor.margin - (duan.margin + m * m)) < 1e-12
        assert cor.detected or not duan.detected  # duan is contained in corollary2


def _closed_form_parts(state):
    s1, s2 = mode_uncertainty_sum(state, 1), mode_uncertainty_sum(state, 2)
    return s1, s2, state.cov[0, 2] - state.cov[1, 3]


@given(GAUSSIAN_STATES, st.sampled_from([1.0, -1.0]))
def test_corollary2_margin_depends_on_a_only_through_its_sign(state, sign):
    # margin = -2 sqrt((S1 - 1)(S2 - 1)) - 2 sign(a) c, whatever |a|
    s1, s2, c = _closed_form_parts(state)
    closed = -2.0 * np.sqrt(max(s1 - 1.0, 0.0) * max(s2 - 1.0, 0.0)) - 2.0 * sign * c
    for a in (0.2, 0.5, 1.0, 2.0, 5.0):
        margin = eval_corollary2(state, sign * a).margin
        assert abs(margin - closed) <= 1e-11 * max(abs(closed), 1.0), (a, margin, closed)


@given(GAUSSIAN_STATES, st.sampled_from([1.0, -1.0]))
def test_corollary2_margin_is_duans_at_the_best_abs_a(state, sign):
    s1, s2, _ = _closed_form_parts(state)
    assume(s1 > 1.0 + 1e-9 and s2 > 1.0 + 1e-9)
    best = sign * ((s2 - 1.0) / (s1 - 1.0)) ** 0.25
    assert abs(eval_duan(state, best).margin - eval_corollary2(state, sign).margin) <= 1e-12


@given(st.integers(0, 10**6))
def test_random_separable_gaussian_never_detected(seed):
    state = random_separable_gaussian(seed)
    herm = state.cov + 0.5j * OMEGA
    assert np.linalg.eigvalsh(herm).min() > -1e-9
    for a in (0.5, 1.0, 2.0):
        assert eval_corollary2(state, a).margin <= 1e-9
        assert eval_duan(state, a).margin <= 1e-9


def test_random_separable_gaussian_determinism():
    a = random_separable_gaussian(12)
    b = random_separable_gaussian(12)
    assert np.array_equal(a.cov, b.cov) and np.array_equal(a.mean, b.mean)


def test_means_do_not_affect_criteria():
    shifted = displaced(tmsv(1.0), [3.0, -1.0, 0.5, 2.0])
    assert abs(eval_corollary2(shifted, 1.0).lhs
               - eval_corollary2(tmsv(1.0), 1.0).lhs) < 1e-12


def test_gaussian_from_spec():
    state = gaussian_from_spec({"tmsv": 1.0})
    np.testing.assert_allclose(state.cov, tmsv(1.0).cov)
    state = gaussian_from_spec({"thermal": [1.0, 0.0]})
    assert abs(mode_uncertainty_sum(state, 1) - 3.0) < 1e-12
    # numpy integer and floating scalars are numbers too
    state = gaussian_from_spec({"thermal": [np.int64(1), np.float32(0.0)]})
    assert abs(mode_uncertainty_sum(state, 1) - 3.0) < 1e-12
    state = gaussian_from_spec({"vacuum": {}, "mean": [1, 2, 3, 4]})
    np.testing.assert_allclose(state.mean, [1, 2, 3, 4])
    state = gaussian_from_spec({"mean": [0, 0, 0, 0],
                                "cov": (0.5 * np.eye(4)).tolist()})
    np.testing.assert_allclose(state.cov, 0.5 * np.eye(4))
    with pytest.raises(SpecParseError):
        gaussian_from_spec({"tmsv": 1.0, "vacuum": {}})
    with pytest.raises(SpecParseError):
        gaussian_from_spec({"squeeze": 1.0})
    with pytest.raises(UnphysicalStateError):
        gaussian_from_spec({"cov": (0.1 * np.eye(4)).tolist()})


def test_combo_variance_validates_coeffs():
    with pytest.raises(ParameterRangeError):
        combo_variance(vacuum(), [1.0, 2.0])
    assert v_coeffs(2.0)[3] == -0.5
