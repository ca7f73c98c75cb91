import numpy as np
import pytest
from hypothesis import given, strategies as st

from tlurkit import (
    GaussianState, combo_variance, eval_corollary2, eval_duan,
    gaussian_from_spec, random_separable_gaussian, thermal, tmsv, vacuum,
)
from tlurkit.cvgauss import (
    OMEGA, displaced, mode_uncertainty_sum, u_coeffs, v_coeffs,
)
from tlurkit.errors import ParameterRangeError, SpecParseError, UnphysicalStateError


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
    with pytest.raises(UnphysicalStateError):
        GaussianState(np.zeros(4), asym)
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


def noisy_tmsv(r, nbar):
    """A two-mode squeezed vacuum with covariance tmsv(r).cov + nbar * I."""
    return GaussianState(np.zeros(4), tmsv(r).cov + nbar * np.eye(4))


@given(st.one_of(st.integers(0, 10**6).map(random_separable_gaussian),
                 st.builds(noisy_tmsv, st.floats(0.0, 2.0), st.floats(0.0, 0.5))))
def test_corollary2_margin_adds_m_squared(state):
    for a in (0.7, 1.0, 1.8):
        duan = eval_duan(state, a)
        cor = eval_corollary2(state, a)
        m = cor.components["M"]
        assert cor.rhs >= duan.rhs
        assert abs(cor.margin - (duan.margin + m * m)) < 1e-12
        assert cor.detected or not duan.detected  # duan is contained in corollary2


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
