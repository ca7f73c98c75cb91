import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlurkit import (
    DensityMatrix, min_eigenvalue, partial_transpose, purity, singlet,
    state_from_spec,
)
from tlurkit.errors import ParameterRangeError, SpecParseError
from tlurkit.states import (
    FAMILIES, _complex_matrix_in_one_pass, _walk_complex_matrix, horodecki33,
    horodecki_noise, noisy_singlet, parse_complex_matrix, random_separable,
    white_noise_mix,
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


@pytest.mark.parametrize("build, message", [
    (lambda: horodecki33("0.5"), "a must be a number for family 'horodecki', got '0.5'"),
    (lambda: horodecki33(1.5), "a must lie in (0.0, 1.0) for family 'horodecki', got 1.5"),
    (lambda: horodecki_noise("0.5", 1),
     "a must be a number for family 'horodecki_noise', got '0.5'"),
    (lambda: horodecki_noise(0.5, 1.5),
     "p must lie in [0.0, 1.0] for family 'horodecki_noise', got 1.5"),
    (lambda: noisy_singlet(True), "p must be a number for family 'noisy_singlet', got True"),
    (lambda: noisy_singlet(float("nan")),
     "p must lie in [0.0, 1.0] for family 'noisy_singlet', got nan"),
    (lambda: white_noise_mix(singlet(), "0.5"), "p must be a number, got '0.5'"),
    (lambda: white_noise_mix(singlet(), 1.5), "p must lie in [0.0, 1.0], got 1.5"),
])
def test_named_builders_follow_the_number_rule_and_the_family_ranges(build, message):
    with pytest.raises(ParameterRangeError) as err:
        build()
    assert str(err.value) == message


def test_named_builders_give_the_bits_of_their_familys_matrix():
    # a named builder is its family's one-point stack; the family's matrix
    # builder on plain numbers gives the same bits
    for rho, name, params in ((horodecki33(0.3), "horodecki", {"a": 0.3}),
                              (horodecki_noise(0.3, 0.9), "horodecki_noise", {"a": 0.3, "p": 0.9}),
                              (noisy_singlet(0.4), "noisy_singlet", {"p": 0.4})):
        fam = FAMILIES[name]
        assert rho.dims == fam.dims and np.array_equal(rho.matrix, fam.matrix(**params))


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


@pytest.mark.parametrize("n_terms, seed, message", [
    (2, "1", "seed must be a number, got '1'"),
    (2, True, "seed must be a number, got True"),
    ("2", 1, "n_terms must be a number, got '2'"),
    (2.5, 1, "n_terms must be an integer, got 2.5"),
    (2, 10**400, f"seed must be finite, got {10**400}"),
], ids=["str-seed", "bool-seed", "str-n_terms", "fractional-n_terms", "huge-seed"])
def test_random_separable_arguments_follow_the_one_number_rule(n_terms, seed, message):
    with pytest.raises(ParameterRangeError) as err:
        random_separable((2, 2), n_terms, seed)
    assert str(err.value) == message
    assert np.array_equal(random_separable((2, 2), 2.0, 1.0).matrix,
                          random_separable((2, 2), 2, 1).matrix)


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


# spec numbers of every kind the number rule admits: floats with -0.0, NaN and
# the infinities, ints past 2**53 and past int64, numpy scalars
_NUMBERS = st.one_of(
    st.floats(), st.integers(-2**70, 2**70),
    st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(-1e300, 1e300).map(np.longdouble),
)
_PAIRS = st.builds(lambda re, im, kind: kind((re, im)), _NUMBERS, _NUMBERS,
                   st.sampled_from([list, tuple]))
_BAD_LEAVES = st.one_of(st.sampled_from([True, False, "1", None]),
                        st.builds(lambda sign, k: sign * (10**400 + k),  # past the float range
                                  st.sampled_from([1, -1]), st.integers(0, 10**6)))


@st.composite
def _square_specs(draw, entries):
    n = draw(st.integers(1, 4))
    return [draw(st.sampled_from([list, tuple]))(draw(st.lists(entries, min_size=n, max_size=n)))
            for _ in range(n)]


@st.composite
def _flawed_specs(draw):
    # all pairs or all numbers, which the one-pass read takes when they are valid
    rows = [list(row) for row in draw(st.sampled_from([_PAIRS, _NUMBERS]).flatmap(_square_specs))]
    n = len(rows)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    flaw = draw(st.sampled_from(["leaf", "entry", "row", "rows"]))
    if flaw == "leaf":
        if isinstance(rows[i][j], (list, tuple)):
            rows[i][j] = list(rows[i][j])
            rows[i][j][draw(st.integers(0, 1))] = draw(_BAD_LEAVES)
        else:
            rows[i][j] = draw(_BAD_LEAVES)
    elif flaw == "entry":
        rows[i][j] = draw(st.one_of(st.lists(_NUMBERS, min_size=1, max_size=1),
                                    st.lists(_NUMBERS, min_size=3, max_size=3)))
    elif flaw == "row":
        rows[i] = draw(st.one_of(st.sampled_from([[], rows[i][:-1], rows[i] + [0.0], "ab"]),
                                 _BAD_LEAVES))
    else:
        rows = draw(st.sampled_from([[], (), None, "rows", [[]], rows[:-1] or [[0.0, 0.0]]]))
    return rows


@settings(max_examples=200)
@given(st.sampled_from([_PAIRS, _NUMBERS, st.one_of(_PAIRS, _NUMBERS)]).flatmap(_square_specs))
def test_the_one_pass_reader_matches_the_walk_bit_for_bit(rows):
    n = len(rows)
    got, want = parse_complex_matrix(rows), _walk_complex_matrix(rows, "matrix")
    assert got.dtype == want.dtype == complex and got.shape == want.shape == (n, n)
    # every bit: the sign of a zero and the payload of a NaN too
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # only a spec that mixes pairs and plain numbers is walked
    kinds = {isinstance(entry, (list, tuple)) for row in rows for entry in row}
    assert (_complex_matrix_in_one_pass(rows) is None) == (len(kinds) == 2)


@settings(max_examples=200)
@given(_flawed_specs())
def test_the_one_pass_reader_raises_what_the_walk_raises(rows):
    with pytest.raises(SpecParseError) as want:
        _walk_complex_matrix(rows, "opsA[1]")
    with pytest.raises(SpecParseError) as got:
        parse_complex_matrix(rows, "opsA[1]")
    assert type(got.value) is type(want.value)
    assert (str(got.value), got.value.field) == (str(want.value), want.value.field)
    assert got.value.field.startswith("opsA[1]")


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
