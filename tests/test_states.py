import numpy as np
import pytest
from hypothesis import given, strategies as st

from tlurkit import (
    DensityMatrix, min_eigenvalue, partial_transpose, purity, singlet,
    state_from_spec,
)
from tlurkit.errors import ParameterRangeError, SpecParseError
from tlurkit.states import (
    FAMILIES, horodecki33, horodecki_noise, noisy_singlet,
    random_separable, white_noise_mix,
)


def reference_horodecki(a):
    """Closed-form 9x9 matrix, written out entry by entry."""
    n = 1.0 / (8.0 * a + 1.0)
    m = np.zeros((9, 9))
    for i in (1, 2, 3, 5, 7):
        m[i, i] = a
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            m[i, j] = a
    m[6, 6] = (1.0 + a) / 2.0
    m[8, 8] = a + (1.0 - a) / 2.0
    m[6, 8] = m[8, 6] = np.sqrt(1.0 - a * a) / 2.0
    return n * m


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9, 0.999])
def test_horodecki_is_valid_and_ppt(a):
    rho = horodecki33(a)
    m = np.asarray(rho.matrix)
    assert np.abs(m.imag).max() == 0.0
    assert abs(np.trace(m).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(m).min() > -1e-12
    # bound entangled by construction: positive under partial transpose
    assert min_eigenvalue(partial_transpose(rho, "B")) > -1e-10


def test_horodecki_matches_reference_matrix():
    rho = horodecki33(0.3)
    np.testing.assert_allclose(np.asarray(rho.matrix).real,
                               reference_horodecki(0.3), atol=1e-14)


def test_horodecki_parameter_range():
    for a in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ParameterRangeError):
            horodecki33(a)


def test_white_noise_endpoints():
    rho = horodecki33(0.3)
    np.testing.assert_allclose(white_noise_mix(rho, 0.0).matrix, np.eye(9) / 9,
                               atol=1e-14)
    np.testing.assert_allclose(white_noise_mix(rho, 1.0).matrix, rho.matrix,
                               atol=1e-14)
    with pytest.raises(ParameterRangeError):
        white_noise_mix(rho, 1.2)


def test_white_noise_lifts_spectrum():
    mixed = horodecki_noise(0.3, 0.5)
    w = np.linalg.eigvalsh(np.asarray(mixed.matrix))
    assert w.min() >= 0.5 / 9.0 - 1e-10


def test_noisy_singlet_endpoints():
    np.testing.assert_allclose(noisy_singlet(1.0).matrix, singlet().matrix,
                               atol=1e-14)
    np.testing.assert_allclose(noisy_singlet(0.0).matrix,
                               np.diag([2 / 3, 1 / 3, 0, 0]).astype(complex),
                               atol=1e-14)
    with pytest.raises(ParameterRangeError):
        noisy_singlet(-0.1)


def test_noisy_singlet_is_npt_for_positive_p():
    # entangled for every p > 0; partial transpose is exact for two qubits
    for p in (0.05, 0.2, 0.5, 1.0):
        assert min_eigenvalue(partial_transpose(noisy_singlet(p), "B")) < -1e-9


def test_random_separable_pure_product():
    rho = random_separable((2, 3), 1, seed=42)
    assert abs(purity(rho) - 1.0) < 1e-10


@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       st.integers(1, 6))
def test_random_separable_is_ppt(seed, dims, n_terms):
    rho = random_separable(dims, n_terms, seed)
    assert min_eigenvalue(partial_transpose(rho, "B")) > -1e-10


def test_random_separable_determinism():
    a = random_separable((2, 2), 4, seed=7)
    b = random_separable((2, 2), 4, seed=7)
    assert np.array_equal(np.asarray(a.matrix), np.asarray(b.matrix))
    c = random_separable((2, 2), 4, seed=8)
    assert not np.array_equal(np.asarray(a.matrix), np.asarray(c.matrix))
    with pytest.raises(ParameterRangeError):
        random_separable((2, 2), 0, seed=1)


def test_state_from_spec_family():
    rho = state_from_spec({"family": "noisy_singlet", "params": {"p": 1.0}})
    np.testing.assert_allclose(rho.matrix, singlet().matrix, atol=1e-14)


def test_state_from_spec_matrix():
    spec = {"dims": [1, 2],
            "matrix": [[[0.5, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.5, 0.0]]]}
    rho = state_from_spec(spec)
    assert isinstance(rho, DensityMatrix)
    assert abs(np.asarray(rho.matrix)[0, 1] - 0.5j) < 1e-15
    # integral dims may be floats, as builder and family dimensions may
    assert state_from_spec(dict(spec, dims=[1.0, 2])).dims == (1, 2)


@pytest.mark.parametrize("spec,field", [
    ({"family": "nope"}, "family"),
    ({"family": "noisy_singlet", "params": {"q": 1.0}}, None),
    ({"dims": [2], "matrix": [[1.0]]}, "dims"),
    ({"dims": [1, 2], "matrix": [[1.0, 0.0], [0.0]]}, "matrix[1]"),
    ({"dims": [1, 2], "matrix": [["x", 0.0], [0.0, 0.0]]}, "matrix[0][0]"),
    ({}, "state"),
    ({"dims": [1.5, 2], "matrix": [[1.0]]}, "dims"),
    ({"dims": [1, "2"], "matrix": [[1.0]]}, "dims"),
    ({"dims": [0, 2], "matrix": [[1.0]]}, "dims"),
])
def test_state_from_spec_errors_name_the_field(spec, field):
    with pytest.raises((SpecParseError, ParameterRangeError)) as err:
        state_from_spec(spec)
    if field is not None and isinstance(err.value, SpecParseError):
        assert err.value.field == field


def test_family_registry():
    assert set(FAMILIES) == {"horodecki", "horodecki_noise", "noisy_singlet",
                             "random_separable"}
    assert FAMILIES["horodecki"].dims_for() == (3, 3)
    assert FAMILIES["noisy_singlet"].dims_for() == (2, 2)
    assert FAMILIES["random_separable"].dims_for({"dim_a": 3, "dim_b": 2}) == (3, 2)
    rho = FAMILIES["random_separable"].instantiate(n_terms=2, seed=3)
    assert rho.dims == (2, 2)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_declared_range_end_is_accepted_or_declared_open(name):
    fam = FAMILIES[name]
    inside = {**{k: (lo + hi) // 2 if isinstance(lo, int) else (lo + hi) / 2
                 for k, (lo, hi) in fam.params.items()}, **fam.defaults}
    for param, ends in fam.params.items():
        for end in ends:
            point = {**inside, param: end}
            if param in fam.open_params:
                with pytest.raises(ParameterRangeError) as err:
                    fam.instantiate(**point)
                assert f"{param} must lie in (" in str(err.value)
            else:
                assert fam.instantiate(**point).dims == fam.dims_for(point)


def test_instantiate_enforces_declared_ranges():
    fam = FAMILIES["random_separable"]
    assert fam.instantiate(dim_a=16, n_terms=1).dims == (16, 2)  # bounds inclusive
    # integer bounds take integral values; an integral float such as an axis's 3.0 is one
    assert fam.instantiate(dim_a=3.0, n_terms=2.0).dims == (3, 2)
    for bad in ({"dim_a": 40}, {"dim_b": 1}, {"n_terms": 2000}, {"seed": -1},
                {"dim_a": 2.5}, {"n_terms": 2.7}, {"seed": 0.5}):
        with pytest.raises(ParameterRangeError) as err:
            fam.instantiate(**bad)
        assert next(iter(bad)) in str(err.value)
