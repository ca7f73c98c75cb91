import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    I2, PX, PY, PZ, bisect_root, corollary1_closed, oracle_loo_witness,
    oracle_variance_sums, random_dm_array, random_herm, witness_closed,
)
from tlurkit import (
    DensityMatrix, DensityStack, entanglement_measures, eval_ccnr, eval_corollary1,
    eval_lemma1, eval_lur, eval_nonlinear_witness, eval_ppt, eval_tlur,
    eval_tlur_dual, joint_variance_sum, loo_pair, partial_trace,
    pauli_loo_pair, schmidt_loo_pair, singlet, su_pair, variance,
)
from tlurkit.criteria import loo_bases_from_set
from tlurkit.errors import DimensionMismatchError, InvalidBoundError, ValidationError
from tlurkit.observables import BoundProvenance, LocalObservableSet
from tlurkit.scan import DV_CRITERIA
from tlurkit.linops import HermitianOperator
from tlurkit.states import (
    horodecki33, noisy_singlet, random_mixed_state, random_separable,
)

PAULI_PAIR = pauli_loo_pair()
MAX_MIXED_2 = DensityMatrix(2, 2, np.eye(4) / 4)


def test_lur_on_singlet():
    rep = eval_lur(singlet(), PAULI_PAIR)
    assert abs(rep.lhs) < 1e-12 and rep.rhs == 2.0 and rep.detected


def test_lur_on_maximally_mixed():
    rep = eval_lur(MAX_MIXED_2, PAULI_PAIR)
    assert abs(rep.lhs - 3.0) < 1e-12 and not rep.detected


def test_tlur_on_singlet_symmetric_reductions():
    rep = eval_tlur(singlet(), PAULI_PAIR)
    assert abs(rep.components["M"]) < 1e-12
    assert abs(rep.rhs - 2.0) < 1e-12
    assert abs(rep.lhs) < 1e-12 and rep.detected


def test_tlur_dual_on_maximally_mixed():
    rep = eval_tlur_dual(MAX_MIXED_2, PAULI_PAIR)
    assert abs(rep.lhs - 3.0) < 1e-12
    assert abs(rep.rhs - 4.0) < 1e-12
    assert not rep.detected


def test_tlur_dual_boundary_on_pure_product():
    ket = np.zeros(4)
    ket[0] = 1.0
    rho = DensityMatrix(2, 2, np.outer(ket, ket))
    rep = eval_tlur_dual(rho, PAULI_PAIR)
    assert abs(rep.lhs - rep.rhs) < 1e-9


def test_lemma1_on_singlet():
    rep = eval_lemma1(singlet(), PAULI_PAIR)
    assert abs(rep.components["sqrt_term"] - 0.5) < 1e-12
    assert abs(rep.components["covariance_sum"] + 1.5) < 1e-12
    assert abs(rep.lhs + 1.0) < 1e-12 and rep.detected


def test_lemma1_zero_covariance_on_product():
    rng = np.random.default_rng(2)
    ra, rb = random_dm_array(2, rng), random_dm_array(2, rng)
    rho = DensityMatrix(2, 2, np.kron(ra, rb))
    rep = eval_lemma1(rho, PAULI_PAIR)
    assert abs(rep.components["covariance_sum"]) < 1e-12
    assert rep.lhs >= -1e-12 and not rep.detected


def test_lemma1_squared_form_consistency():
    for seed in range(20):
        rho = random_separable((2, 2), 3, seed)
        rep = eval_lemma1(rho, PAULI_PAIR)
        c = rep.components
        assert abs(c["product_lhs"] - c["excess_A"] * c["excess_B"]) < 1e-12
        assert abs(c["product_rhs"] - c["covariance_sum"] ** 2) < 1e-12
        # min-sign value >= 0 is the same statement as the squared form
        assert (rep.lhs >= -1e-9) == (c["product_lhs"] >= c["product_rhs"] - 1e-9)


def test_corollary1_on_singlet_and_product():
    rep = eval_corollary1(singlet(), PAULI_PAIR)
    assert abs(rep.lhs + 1.0) < 1e-10 and rep.detected
    assert abs(rep.components["variance_sum"]) < 1e-12

    ket = np.zeros(4)
    ket[0] = 1.0
    rep = eval_corollary1(DensityMatrix(2, 2, np.outer(ket, ket)), PAULI_PAIR)
    assert abs(rep.lhs) < 1e-12 and not rep.detected


def test_noisy_singlet_witness_values_match_closed_forms():
    for p in (0.0, 0.1, 0.221, 0.25, 0.4, 0.75, 1.0):
        rho = noisy_singlet(p)
        wit = eval_nonlinear_witness(rho, PAULI_PAIR)
        cor = eval_corollary1(rho, PAULI_PAIR)
        assert abs(wit.lhs - witness_closed(p)) < 1e-10
        assert abs(cor.lhs - corollary1_closed(p)) < 1e-10


def test_noisy_singlet_witness_boundary_value():
    rep = eval_nonlinear_witness(noisy_singlet(0.25), PAULI_PAIR)
    assert abs(rep.lhs) < 5e-3  # the closed form vanishes at p = 1/4 exactly
    root = bisect_root(corollary1_closed, 0.05, 0.95)
    assert abs(root - 0.221) < 5e-3


def test_corollary1_never_weaker_than_witness():
    for seed in range(15):
        rho = DensityMatrix(2, 2, random_dm_array(4, np.random.default_rng(seed)))
        wit = eval_nonlinear_witness(rho, PAULI_PAIR)
        cor = eval_corollary1(rho, PAULI_PAIR)
        assert cor.lhs <= wit.lhs + 1e-12
        if wit.detected:
            assert cor.detected


def test_ppt_and_ccnr():
    assert abs(eval_ppt(singlet()).lhs + 0.5) < 1e-12
    assert eval_ppt(singlet()).detected
    assert abs(eval_ccnr(singlet()).lhs - 2.0) < 1e-12
    assert eval_ccnr(singlet()).detected
    assert not eval_ppt(horodecki33(0.5)).detected
    rng = np.random.default_rng(8)
    prod = DensityMatrix(2, 2, np.kron(random_dm_array(2, rng), random_dm_array(2, rng)))
    assert not eval_ppt(prod).detected and not eval_ccnr(prod).detected


@given(st.integers(0, 10**6), st.sampled_from(["pauli", "loo33", "su23"]))
def test_expansion_identity(seed, kind):
    # the joint variance sum always splits into local sums plus twice the
    # cross-covariance sum, entangled states included
    rng = np.random.default_rng(seed)
    if kind == "pauli":
        obs, (da, db) = PAULI_PAIR, (2, 2)
    elif kind == "loo33":
        obs, (da, db) = loo_pair(3, 3), (3, 3)
    else:
        obs, (da, db) = su_pair(2, 3), (2, 3)
    rho = DensityMatrix(da, db, random_dm_array(da * db, rng))
    lhs = joint_variance_sum(rho, obs)
    ra, rb = partial_trace(rho, "B"), partial_trace(rho, "A")
    local = sum(variance(op, ra) for op in obs.stack_a)
    local += sum(variance(op, rb) for op in obs.stack_b)
    m = np.asarray(rho.matrix)
    cov = sum(np.trace(m @ np.kron(a, b)).real
              - np.trace(ra @ a).real * np.trace(rb @ b).real
              for a, b in zip(obs.stack_a, obs.stack_b))
    assert abs(lhs - (local + 2.0 * cov)) < 1e-9


def _declared_set(da, db):
    # random Hermitian operators: certified by the qubit closed form or the
    # minimizer, not by a builder's closed form; bounds 0 always hold
    rng = np.random.default_rng(da * 10 + db)
    ops_a = [random_herm(da, rng) for _ in range(3)]
    ops_b = [random_herm(db, rng) for _ in range(3)]
    return LocalObservableSet(ops_a, ops_b, 0.0, 0.0, BoundProvenance("declared"))


def _kernel_cases():
    for da, db in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]:
        sets = {f"{builder.__name__}-{pairing}": builder(da, db, pairing=pairing)
                for builder in (loo_pair, su_pair) for pairing in ("conjugate", "direct")}
        sets["declared"] = _declared_set(da, db)
        if (da, db) == (2, 2):
            sets["pauli_loo_pair"] = PAULI_PAIR
        for seed in range(3):
            rng = np.random.default_rng(1000 * da + 100 * db + seed)
            rho = DensityMatrix(da, db, random_dm_array(da * db, rng))
            yield rho, {**sets, "schmidt_loo_pair": schmidt_loo_pair(rho)}


@pytest.mark.parametrize("rho,sets", list(_kernel_cases()))
def test_moment_kernel_matches_per_observable_oracle(rho, sets):
    m, da, db = np.asarray(rho.matrix), rho.dim_a, rho.dim_b
    for name, obs in sets.items():
        joint, local_a, local_b, cov = oracle_variance_sums(m, da, db, obs.stack_a,
                                                            obs.stack_b)
        tlur = eval_tlur(rho, obs).components
        got = [joint_variance_sum(rho, obs), tlur["local_variance_sum_A"],
               tlur["local_variance_sum_B"], eval_lemma1(rho, obs).components["covariance_sum"]]
        np.testing.assert_allclose(got, [joint, local_a, local_b, cov], rtol=0, atol=1e-12,
                                   err_msg=name)
        if name.startswith("su_pair") or name == "declared":
            continue  # not built from LOO bases
        # the LOO pair A_k = G_k^A, B_k = -G_k^B; zero padding contributes zeros
        cross, mean_diff_sq, pa, pb = oracle_loo_witness(m, da, db, obs.stack_a, -obs.stack_b)
        witness = 1.0 - cross - 0.5 * mean_diff_sq
        corollary1 = witness - 0.5 * (np.sqrt(1.0 - pa) - np.sqrt(1.0 - pb)) ** 2
        np.testing.assert_allclose(
            [eval_nonlinear_witness(rho, obs).lhs, eval_corollary1(rho, obs).lhs],
            [witness, corollary1], rtol=0, atol=1e-12, err_msg=name)


def test_loo_witnesses_read_a_declared_loo_set_against_d_minus_1():
    # a declared LOO pair may carry bounds below d - 1; the witnesses still
    # hold it to the exact d - 1 and agree with the builder's set
    for da, db in [(2, 2), (2, 3)]:
        built = loo_pair(da, db)
        declared = LocalObservableSet(built.stack_a, built.stack_b, 0.5, 0.5,
                                      BoundProvenance("declared"))
        assert declared.is_loo_pair
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rho = DensityMatrix(da, db, random_dm_array(da * db, rng))
            for evaluate in (eval_nonlinear_witness, eval_corollary1):
                assert evaluate(rho, declared).lhs == evaluate(rho, built).lhs


def _declared_qubit_set(mats, bound):
    return LocalObservableSet([HermitianOperator(m) for m in mats],
                              [HermitianOperator(-m) for m in mats], bound, bound,
                              BoundProvenance("declared"))


def test_loo_witnesses_reject_sets_without_loo_bases():
    rho = noisy_singlet(0.5)
    unnormalized = _declared_qubit_set((PX, PY, PZ, I2), 2.0)  # off by sqrt(2)
    for obs in (su_pair(2, 2), _declared_qubit_set((PX, PY, PZ), 2.0), unnormalized):
        assert not obs.is_loo_pair
        for evaluate in (eval_nonlinear_witness, eval_corollary1):
            with pytest.raises(ValidationError):
                evaluate(rho, obs)
        with pytest.raises(ValidationError):
            loo_bases_from_set(obs)


@given(st.integers(0, 10**6))
def test_separable_soundness_sample(seed):
    rng = np.random.default_rng(seed)
    dims = [(2, 2), (2, 3), (3, 3)][seed % 3]
    rho = random_separable(dims, 1 + seed % 5, seed)
    obs = pauli_loo_pair() if dims == (2, 2) else loo_pair(*dims)
    assert not eval_lur(rho, obs).detected
    assert not eval_tlur(rho, obs).detected
    assert not eval_tlur_dual(rho, obs).detected
    assert not eval_lemma1(rho, obs).detected
    assert not eval_corollary1(rho, obs).detected


MIXED_DIMS = st.sampled_from([(2, 2), (2, 3), (3, 3)])


def _random_state(seed, dims, rank):
    da, db = dims
    return DensityMatrix(da, db, random_mixed_state(da * db, np.random.default_rng(seed), rank))


@given(st.integers(0, 10**6), MIXED_DIMS, st.integers(1, 3))
@settings(max_examples=100)
def test_tlur_detects_whatever_lur_detects(seed, dims, rank):
    rho = _random_state(seed, dims, rank)
    for obs in (schmidt_loo_pair(rho), su_pair(*dims)):
        if eval_lur(rho, obs).detected:
            assert eval_tlur(rho, obs).detected


@given(st.integers(0, 10**6), MIXED_DIMS, st.integers(1, 3))
@settings(max_examples=100)
def test_corollary1_detects_whatever_the_nonlinear_witness_detects(seed, dims, rank):
    rho = _random_state(seed, dims, rank)
    for obs in (schmidt_loo_pair(rho), loo_pair(*dims)):
        if eval_nonlinear_witness(rho, obs).detected:
            assert eval_corollary1(rho, obs).detected


@given(st.integers(0, 10**6), MIXED_DIMS, st.integers(1, 6))
@settings(max_examples=100)
def test_no_detection_on_random_separable_states(seed, dims, n_terms):
    rho = random_separable(dims, n_terms, seed)
    loo_sets = [schmidt_loo_pair(rho), loo_pair(*dims)]
    for obs in loo_sets + [su_pair(*dims)]:
        assert not eval_lur(rho, obs).detected
        assert not eval_tlur(rho, obs).detected
    for obs in loo_sets:
        assert not eval_corollary1(rho, obs).detected
    assert not eval_ppt(rho).detected
    assert not eval_ccnr(rho).detected


PPT_EXACT_DIMS = st.sampled_from([(2, 2), (2, 3), (3, 2)])
SET_CRITERIA = [entry for entry in DV_CRITERIA.values() if entry.needs_obs]
LOO_ONLY = {"corollary1", "nonlinear_witness"}  # defined on LOO pairs only


@given(st.integers(0, 10**6), PPT_EXACT_DIMS, st.integers(1, 6))
@settings(max_examples=60)
def test_every_detection_implies_ppt_where_ppt_is_exact(seed, dims, rank):
    # in 2x2 and 2x3 a state is separable iff its partial transpose is
    # positive (Horodecki^3, PLA 223, 1 (1996)), so a sound criterion never
    # detects a state that ppt misses; 50 random states of one rank a stack
    da, db = dims
    rng = np.random.default_rng(seed)
    rho = DensityStack(da, db, np.array([random_mixed_state(da * db, rng, rank)
                                         for _ in range(50)]))
    ppt = eval_ppt(rho).detected
    sets = [builder(da, db, pairing=pairing) for builder in (loo_pair, su_pair)
            for pairing in ("conjugate", "direct")] + [schmidt_loo_pair(rho)]
    if dims == (2, 2):
        sets.append(pauli_loo_pair())
    verdicts = [eval_ccnr(rho)] + [entry.evaluate(rho, obs) for obs in sets
                                   for entry in SET_CRITERIA
                                   if obs.is_loo_pair or entry.name not in LOO_ONLY]
    for verdict in verdicts:
        missed = verdict.detected & ~ppt
        assert not missed.any(), (verdict.criterion, np.flatnonzero(missed))


def test_margin_relations():
    for p in (0.0, 0.3, 0.6, 1.0):
        rho = noisy_singlet(p)
        lur = eval_lur(rho, PAULI_PAIR)
        tlur = eval_tlur(rho, PAULI_PAIR)
        m = tlur.components["M"]
        assert abs(tlur.margin - (lur.margin + m * m)) < 1e-12
        if lur.detected:
            assert tlur.detected


def test_entanglement_measures():
    c_lur, c_tlur = entanglement_measures(singlet(), PAULI_PAIR)
    assert abs(c_lur - 1.0) < 1e-12 and abs(c_tlur - 1.0) < 1e-12

    rho = DensityMatrix(3, 3, np.eye(9) / 9)
    c_lur, c_tlur = entanglement_measures(rho, loo_pair(3, pairing="direct"))
    assert abs(c_lur + 1.0 / 3.0) < 1e-12
    assert abs(c_tlur + 1.0 / 3.0) < 1e-12


@given(st.integers(0, 10**6))
def test_measures_identity(seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(2, 2, random_dm_array(4, rng))
    c_lur, c_tlur = entanglement_measures(rho, PAULI_PAIR)
    m = eval_tlur(rho, PAULI_PAIR).components["M"]
    assert abs((c_tlur - c_lur) - m * m / 2.0) < 1e-12


def test_measures_ordering_on_horodecki():
    obs_by_a = {a: su_pair(3) for a in (0.1, 0.5, 0.9)}
    for a, obs in obs_by_a.items():
        c_lur, c_tlur = entanglement_measures(horodecki33(a), obs)
        assert c_tlur >= c_lur


def test_schmidt_pair_detects_horodecki():
    rho = horodecki33(0.5)
    obs = schmidt_loo_pair(rho)
    assert eval_lur(rho, obs).detected
    assert eval_tlur(rho, obs).detected


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        eval_lur(DensityMatrix(3, 3, np.eye(9) / 9), PAULI_PAIR)


def test_invalid_bound_surfaces_on_real_state():
    # construction holds this qubit side to its exact minimum 0, so a bound of
    # 3e-4 is rejected up front; forced onto a built set, it is still exposed
    # by an eigenstate during evaluation (the criteria's own excess guard)
    ops = [HermitianOperator(np.diag([1.0, -1.0]))]
    with pytest.raises(InvalidBoundError):
        LocalObservableSet(ops, ops, 3e-4, 3e-4, BoundProvenance("analytic"))
    obs = LocalObservableSet(ops, ops, 0.0, 0.0, BoundProvenance("analytic"))
    object.__setattr__(obs, "bound_a", 3e-4)
    object.__setattr__(obs, "bound_b", 3e-4)
    ket = np.zeros(4)
    ket[0] = 1.0
    rho = DensityMatrix(2, 2, np.outer(ket, ket))
    with pytest.raises(InvalidBoundError):
        eval_tlur(rho, obs)
    with pytest.raises(InvalidBoundError):
        eval_lemma1(rho, obs)


def test_report_serialization_roundtrip():
    import json

    rep = eval_tlur(noisy_singlet(0.8), PAULI_PAIR)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["criterion"] == "tlur"
    assert back["detected"] is True
    assert abs(back["components"]["M"] - rep.components["M"]) < 1e-15
