import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import I2, PX, PY, PZ, random_dm_array
from tlurkit import (
    DensityMatrix, loo_basis, loo_pair, observables_from_spec,
    operator_schmidt, pauli_loo_pair, schmidt_loo_pair, singlet,
    su_generators, su_pair, trace_norm, realign, uncertainty_bound,
)
from tlurkit.errors import InvalidBoundError, ParameterRangeError, SpecParseError
from tlurkit.linops import DensityStack, HermitianOperator
from tlurkit.observables import BoundProvenance, LocalObservableSet
from tlurkit.states import (
    horodecki_noise, random_mixed_state, random_pure_state, random_separable,
)


def test_su_generators_d2_are_paulis():
    gens = su_generators(2)
    np.testing.assert_allclose(gens[0].matrix, PX)
    np.testing.assert_allclose(gens[1].matrix, PY)
    np.testing.assert_allclose(gens[2].matrix, PZ)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_su_generators_orthogonality(d):
    gens = [np.asarray(g.matrix) for g in su_generators(d)]
    assert len(gens) == d * d - 1
    for i, a in enumerate(gens):
        assert abs(np.trace(a)) < 1e-12
        for j, b in enumerate(gens):
            want = 2.0 if i == j else 0.0
            assert abs(np.trace(a.conj().T @ b) - want) < 1e-12


def test_su3_casimir_sum():
    total = sum(np.asarray(g.matrix) @ np.asarray(g.matrix) for g in su_generators(3))
    np.testing.assert_allclose(total, (16.0 / 3.0) * np.eye(3), atol=1e-12)


def test_loo_basis_d2():
    ops = loo_basis(2)
    expected = [PX / np.sqrt(2), PY / np.sqrt(2), PZ / np.sqrt(2), I2 / np.sqrt(2)]
    for got, want in zip(ops, expected):
        np.testing.assert_allclose(got, want, atol=1e-15)


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_loo_basis_identities(seed, d):
    rho = random_dm_array(d, np.random.default_rng(seed))
    ops = loo_basis(d)
    means_sq = sum(np.trace(rho @ g).real ** 2 for g in ops)
    seconds = sum(np.trace(rho @ g @ g).real for g in ops)
    assert abs(means_sq - np.trace(rho @ rho).real) < 1e-10
    assert abs(seconds - d) < 1e-10


def _joint_variance_sum(rho, obs):
    from tlurkit import joint_variance_sum
    return joint_variance_sum(rho, obs)


def test_pauli_loo_pair_annihilates_singlet():
    obs = pauli_loo_pair()
    assert obs.bound_a == obs.bound_b == 1.0
    assert obs.provenance.mode == "analytic"
    assert _joint_variance_sum(singlet(), obs) < 1e-12


def test_pauli_loo_pair_on_maximally_mixed():
    obs = pauli_loo_pair()
    rho = DensityMatrix(2, 2, np.eye(4) / 4)
    assert abs(_joint_variance_sum(rho, obs) - 3.0) < 1e-12


def test_loo_pair_conjugate_annihilates_maximally_entangled():
    d = 3
    obs = loo_pair(d)
    phi = np.zeros(9)
    phi[[0, 4, 8]] = 1.0 / np.sqrt(3)
    rho = DensityMatrix(3, 3, np.outer(phi, phi))
    assert _joint_variance_sum(rho, obs) < 1e-12
    assert obs.bound_a == obs.bound_b == 2.0


def test_pair_builders_pad_unequal_dims():
    obs = loo_pair(2, 3)
    assert obs.n == 9
    assert obs.dim_a == 2 and obs.dim_b == 3
    assert obs.bound_a == 1.0 and obs.bound_b == 2.0
    # the padded A-side operators are zero
    assert np.abs(obs.stack_a[4:]).max() == 0.0
    su = su_pair(2, 3)
    assert su.n == 8 and su.bound_a == 2.0 and su.bound_b == 4.0


def test_su_pair_pairing_modes():
    conj = su_pair(3, pairing="conjugate")
    direct = su_pair(3, pairing="direct")
    # antisymmetric generators flip sign under conjugation
    flips = sum(1 for a, b in zip(conj.stack_b, direct.stack_b) if not np.allclose(a, b))
    assert flips == 3
    with pytest.raises(ParameterRangeError):
        su_pair(3, pairing="sideways")


def test_fixed_sets_are_built_once_and_shared():
    assert pauli_loo_pair() is pauli_loo_pair()
    assert loo_pair(2, 3) is loo_pair(2, 3, pairing="conjugate")
    assert su_pair(3) is su_pair(3, 3) is observables_from_spec("su_pair", dims=(3, 3))
    assert loo_pair(3) is not loo_pair(3, pairing="direct")
    for obs in (pauli_loo_pair(), loo_pair(2, 3), su_pair(3)):  # so sharing is safe
        for arr in (obs.stack_a, obs.stack_b, obs.rows_a, obs.rows_b):
            assert not arr.flags.writeable
    # the pairing is checked before the cache, so an unhashable one reads as before
    for builder in (loo_pair, su_pair):
        with pytest.raises(ParameterRangeError,
                           match=r"^pairing must be 'conjugate' or 'direct', got \['x'\]$"):
            builder(2, pairing=["x"])
    with pytest.raises(ParameterRangeError, match="pairing must be"):
        observables_from_spec({"builder": "loo_pair", "params": {"pairing": ["x"]}},
                              dims=(2, 2))


def test_operator_schmidt_singlet():
    coeffs, ops_a, ops_b = operator_schmidt(singlet())
    np.testing.assert_allclose(coeffs, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    rec = sum(c * np.kron(a, b) for c, a, b in zip(coeffs, ops_a, ops_b))
    np.testing.assert_allclose(rec, singlet().matrix, atol=1e-12)


def test_operator_schmidt_product_and_mixed():
    ket = np.zeros(9)
    ket[0] = 1.0
    pure = DensityMatrix(3, 3, np.outer(ket, ket))
    coeffs, _, _ = operator_schmidt(pure)
    assert abs(coeffs[0] - 1.0) < 1e-12
    assert coeffs[1:].max() < 1e-12

    mixed = DensityMatrix(3, 3, np.eye(9) / 9)
    coeffs, ops_a, ops_b = operator_schmidt(mixed)
    assert abs(coeffs[0] - 1.0 / 3.0) < 1e-12
    assert coeffs[1:].max() < 1e-12
    np.testing.assert_allclose(np.abs(ops_a[0]), np.eye(3) / np.sqrt(3),
                               atol=1e-12)


def test_operator_schmidt_coefficients_equal_realignment_spectrum():
    rho = horodecki_noise(0.4, 0.9)
    coeffs, _, _ = operator_schmidt(rho)
    assert abs(coeffs.sum() - trace_norm(realign(rho))) < 1e-9


def test_schmidt_loo_pair_structure():
    rho = horodecki_noise(0.4, 0.9)
    obs = schmidt_loo_pair(rho)
    assert obs.n == 9
    assert obs.bound_a == obs.bound_b == 2.0
    # A ops and negated B ops each form complete LOO bases
    assert obs.is_loo_pair
    for stack in (obs.stack_a, -obs.stack_b):
        gram = np.einsum("kij,lji->kl", stack, stack)
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)
    # pairing carries the Schmidt coefficients
    coeffs, _, _ = operator_schmidt(rho)
    m = np.asarray(rho.matrix)
    cross = sum(np.trace(m @ np.kron(a, -b)).real for a, b in zip(obs.stack_a, obs.stack_b))
    assert abs(cross - coeffs.sum()) < 1e-9


@pytest.mark.parametrize("d,expected", [(2, 1.0), (3, 2.0), (4, 3.0)])
def test_uncertainty_bound_analytic_loo(d, expected):
    val, prov = uncertainty_bound(loo_basis(d), mode="analytic")
    assert val == expected and prov.mode == "analytic"


@pytest.mark.parametrize("d,expected", [(2, 2.0), (3, 4.0)])
def test_uncertainty_bound_analytic_su(d, expected):
    val, _ = uncertainty_bound(su_generators(d), mode="analytic")
    assert val == expected


def test_uncertainty_bound_numeric_matches_analytic():
    for ops, expected in [(loo_basis(2), 1.0), (loo_basis(3), 2.0),
                          (su_generators(3), 4.0)]:
        val, prov = uncertainty_bound(ops, mode="numeric", seed=5)
        assert prov.mode == "numeric"
        # numeric subtracts its 1e-6 safety margin; allow float dust on top
        assert expected - 1e-6 - 1e-12 <= val <= expected


def test_uncertainty_bound_single_sigma_z():
    val, _ = uncertainty_bound([PZ], mode="numeric", seed=0)
    assert val == 0.0


def test_uncertainty_bound_nontrivial_set():
    # min over pure states of Var(sz) + Var(sx) = 2 - max(x^2 + z^2) = 1
    val, _ = uncertainty_bound([PZ, PX], mode="numeric", seed=0)
    assert abs(val - (1.0 - 1e-6)) < 1e-9


def test_uncertainty_bound_determinism_and_errors():
    a, _ = uncertainty_bound([PZ, PX], mode="numeric", seed=9)
    b, _ = uncertainty_bound([PZ, PX], mode="numeric", seed=9)
    assert a == b
    # every qubit set has a closed form (here 1); a qutrit pair has none
    assert uncertainty_bound([PZ, PX], mode="analytic")[0] == 1.0
    with pytest.raises(ParameterRangeError):
        uncertainty_bound(_QUTRIT_PAIR, mode="analytic")
    with pytest.raises(ParameterRangeError):
        uncertainty_bound([], mode="numeric")
    with pytest.raises(ParameterRangeError):
        uncertainty_bound([PZ, PX], mode="numeric", restarts=0)


_QUTRIT_PAIR = [su_generators(3)[4].matrix, np.diag([1.0, 0.0, -1.0]).astype(complex)]


def test_numeric_bound_holds_against_haar_sampling():
    rng = np.random.default_rng(123)
    ops = _QUTRIT_PAIR
    bound, _ = uncertainty_bound(ops, mode="numeric", seed=3)
    sq = sum(a @ a for a in ops)
    for _ in range(2000):
        psi = random_pure_state(3, rng)
        total = (psi.conj() @ sq @ psi).real
        total -= sum((psi.conj() @ a @ psi).real ** 2 for a in ops)
        assert total >= bound - 1e-9


def test_mixed_states_never_beat_pure_state_bound():
    # variance sums are concave in the state, so the pure-state minimum rules
    rng = np.random.default_rng(77)
    ops = [PZ, PX]
    bound, _ = uncertainty_bound(ops, mode="numeric", seed=0)
    for _ in range(500):
        rho = random_dm_array(2, rng)
        total = sum((np.trace(rho @ a @ a).real - np.trace(rho @ a).real ** 2)
                    for a in ops)
        assert total >= bound - 1e-9


def test_declared_bound_beaten_by_sampling_is_rejected():
    ops = [HermitianOperator(PZ)]
    with pytest.raises(InvalidBoundError):
        LocalObservableSet(ops, ops, 0.5, 0.5, BoundProvenance("analytic"))


def test_declared_qutrit_bound_above_an_eigenstate_is_rejected():
    # diag(1, 0, -1) has zero variance on its eigenstates, so any positive
    # declared bound is invalid; the minimizer's starts reach an eigenstate
    h = np.diag([1.0, 0.0, -1.0]).astype(complex)
    with pytest.raises(InvalidBoundError):
        LocalObservableSet([h], [h], 0.02, 0.0, BoundProvenance("declared"))
    LocalObservableSet([h], [h], 0.0, 0.0, BoundProvenance("declared"))


@st.composite
def _qubit_stacks(draw):
    seed, n = draw(st.integers(0, 10**6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    return (g + g.conj().transpose(0, 2, 1)) / 2


@given(_qubit_stacks(), st.integers(0, 100))
def test_qubit_closed_form_matches_minimizer_and_rejects_above(stack, seed):
    exact, prov = uncertainty_bound(stack, mode="analytic")
    assert prov.mode == "analytic"
    numeric, _ = uncertainty_bound(stack, mode="numeric", seed=seed)
    assert abs(numeric - max(exact - 1e-6, 0.0)) < 1e-9
    declared = BoundProvenance("declared")
    assert LocalObservableSet(stack, stack, exact, exact, declared).bound_a == exact
    with pytest.raises(InvalidBoundError):
        LocalObservableSet(stack, stack, exact + 1e-6, 0.0, declared)


def test_observables_from_spec_builders():
    obs = observables_from_spec("pauli_loo_pair")
    assert obs.n == 4
    obs = observables_from_spec({"builder": "loo_pair", "params": {"dim_a": 3}})
    assert obs.dim_a == 3
    obs = observables_from_spec({"builder": "su_pair"}, state=singlet())
    assert obs.dim_a == 2
    obs = observables_from_spec("schmidt_loo_pair", state=singlet())
    assert obs.n == 4
    with pytest.raises(SpecParseError):
        observables_from_spec("schmidt_loo_pair")
    with pytest.raises(SpecParseError):
        observables_from_spec({"builder": "warp_drive"})
    with pytest.raises(SpecParseError):
        observables_from_spec({"builder": "loo_pair"})


def test_a_spec_naming_one_dimension_takes_the_other_from_the_state():
    for builder in ("loo_pair", "su_pair"):
        for params, dims in [({"dim_a": 3}, (3, 2)), ({"dim_b": 2}, (3, 2)),
                             ({"dim_a": 2}, (2, 3))]:
            obs = observables_from_spec({"builder": builder, "params": params}, dims=dims)
            assert (obs.dim_a, obs.dim_b) == dims, (builder, params)
        # with no state, dim_b still defaults to dim_a
        obs = observables_from_spec({"builder": builder, "params": {"dim_a": 3}})
        assert (obs.dim_a, obs.dim_b) == (3, 3)


def test_observables_from_spec_rejects_non_integral_params():
    obs = observables_from_spec({"builder": "su_pair", "params": {"dim_a": 2.0, "dim_b": 3.0}})
    assert (obs.dim_a, obs.dim_b) == (2, 3)
    for key, value in [("dim_a", 2.5), ("dim_b", 3.9), ("dim_b", "3"), ("dim_a", True)]:
        params = {"dim_a": 2, "dim_b": 3, key: value}
        with pytest.raises(SpecParseError, match=f"params.{key}"):
            observables_from_spec({"builder": "su_pair", "params": params})


def test_observables_from_spec_rejects_dimensions_outside_2_16():
    obs = observables_from_spec({"builder": "loo_pair", "params": {"dim_a": 16, "dim_b": 2}})
    assert (obs.dim_a, obs.dim_b) == (16, 2)
    for builder in ("loo_pair", "su_pair"):
        for key, value in [("dim_a", 17), ("dim_b", 1), ("dim_a", 0), ("dim_b", 400)]:
            params = {"dim_a": 2, "dim_b": 2, key: value}
            with pytest.raises(SpecParseError, match=f"params.{key}"):
                observables_from_spec({"builder": builder, "params": params})
        # dimensions defaulted from the state are held to the same range
        with pytest.raises(SpecParseError, match="params.dim_a"):
            observables_from_spec(builder, dims=(17, 2))


def test_observables_from_spec_explicit_matrices():
    z = [[1.0, 0.0], [0.0, -1.0]]
    x = [[0.0, 1.0], [1.0, 0.0]]
    spec = {"opsA": [z, x], "opsB": [z, x], "boundA": 0.9, "boundB": 0.9}
    obs = observables_from_spec(spec)
    assert obs.n == 2
    assert obs.provenance.mode == "declared"
    bad = dict(spec, boundA=1.5)
    with pytest.raises(InvalidBoundError):
        observables_from_spec(bad)
    with pytest.raises(SpecParseError):
        observables_from_spec({"opsA": [z]})


def test_random_separable_satisfies_sampled_bounds():
    # cross-module property: separable states obey every certified bound pair
    from tlurkit import eval_lur, eval_tlur

    obs = pauli_loo_pair()
    for seed in range(25):
        rho = random_separable((2, 2), 3, seed)
        assert not eval_lur(rho, obs).detected
        assert not eval_tlur(rho, obs).detected


def _schmidt_test_states():
    rng = np.random.default_rng(31)
    ket = np.zeros(6)
    ket[0] = 1.0
    yield singlet()
    yield horodecki_noise(0.4, 0.9)
    yield DensityMatrix(3, 3, np.eye(9) / 9)
    yield DensityMatrix(2, 3, np.outer(ket, ket))
    yield random_separable((3, 2), 2, 7)
    for (da, db), rank in [((2, 3), 1), ((3, 3), 2), ((3, 4), 3), ((4, 4), 16)]:
        yield DensityMatrix(da, db, random_mixed_state(da * db, rng, rank))


def test_builder_sets_are_certified_without_sampling(monkeypatch):
    # every library builder makes sets with a closed-form bound, so building
    # them must not draw a single random state; nor must certifying a generator
    # set declared below its exact bound 2(d-1)
    generator_sets = [su_pair(da, db, pairing=pairing) for da, db in [(2, 2), (2, 3), (3, 3)]
                      for pairing in ("conjugate", "direct")]

    def no_sampling(*args, **kwargs):
        raise AssertionError("a builder set drew a random state")

    monkeypatch.setattr("tlurkit.observables.random_pure_state", no_sampling)
    pauli_loo_pair()
    for da, db in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)]:
        for pairing in ("conjugate", "direct"):
            loo_pair(da, db, pairing=pairing)
            su_pair(da, db, pairing=pairing)
    for obs in generator_sets:
        LocalObservableSet(obs.stack_a, obs.stack_b, obs.bound_a - 1e-6, obs.bound_b - 1e-6,
                           BoundProvenance("declared"))
    for rho in _schmidt_test_states():
        schmidt_loo_pair(rho)
        observables_from_spec("schmidt_loo_pair", state=rho)


@pytest.mark.parametrize("ops,exact", [
    (loo_basis(3), 2.0),
    ([HermitianOperator(m) for m in (PX, -PY, PZ)], 2.0),
])
def test_declared_closed_form_bound_is_exact(ops, exact):
    declared = BoundProvenance("declared")
    obs = LocalObservableSet(ops, ops, exact, exact, declared)
    assert obs.bound_a == obs.bound_b == exact
    with pytest.raises(InvalidBoundError):
        LocalObservableSet(ops, ops, exact, exact + 1e-6, declared)


@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       st.integers(1, 3))
@settings(max_examples=100)
def test_schmidt_lur_detects_whatever_ccnr_detects(seed, dims, rank):
    from tlurkit import eval_ccnr, eval_lur

    da, db = dims
    rho = DensityMatrix(da, db, random_mixed_state(da * db, np.random.default_rng(seed), rank))
    if eval_ccnr(rho).detected:
        assert eval_lur(rho, schmidt_loo_pair(rho)).detected


def test_schmidt_factors_are_hermitian_well_inside_the_set_check():
    # operator_schmidt does not check its factors; the set built from them
    # holds each to 1e-10, and the factors are Hermitian by construction
    rng = np.random.default_rng(9)
    for da, db in ((2, 3), (3, 3), (4, 2)):
        d = da * db
        g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        m = g @ g.conj().swapaxes(1, 2)
        rho = DensityStack(da, db, m / np.trace(m, axis1=1, axis2=2)[:, None, None])
        _, ops_a, ops_b = operator_schmidt(rho)
        for ops in (ops_a, ops_b):
            assert np.abs(ops - ops.conj().swapaxes(-1, -2)).max() < 1e-14
