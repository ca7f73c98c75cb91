"""Stacks of states: the evaluators on a ``DensityStack`` against the
per-observable oracle of ``helpers``, and against the same states evaluated
one at a time."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import oracle_partial_trace, oracle_variance_sums
from tlurkit import (
    DensityMatrix, GridAxis, eval_ccnr, eval_corollary1, eval_lemma1, eval_lur,
    eval_nonlinear_witness, eval_ppt, eval_tlur, eval_tlur_dual, loo_pair,
    operator_schmidt, pauli_loo_pair, schmidt_loo_pair, su_pair, sweep,
)
from tlurkit import criteria, linops
from tlurkit.criteria import _moments, shared_moments
from tlurkit.errors import DimensionMismatchError, ParameterRangeError, ValidationError
from tlurkit.linops import DensityStack
from tlurkit.scan import Plan
from tlurkit.states import FAMILIES, StateFamily, random_mixed_state, random_separable

SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]
SET_CRITERIA = {"lur": eval_lur, "tlur": eval_tlur, "tlur_dual": eval_tlur_dual,
                "lemma1": eval_lemma1}
LOO_CRITERIA = {"nonlinear_witness": eval_nonlinear_witness, "corollary1": eval_corollary1}


def _stack(seed, dims, ranks):
    da, db = dims
    d = da * db
    rng = np.random.default_rng(seed)
    return DensityStack(da, db, np.array([random_mixed_state(d, rng, min(r, d))
                                          for r in ranks]))


def _sets(rho):
    sets = {"schmidt_loo_pair": schmidt_loo_pair(rho),
            "loo_pair-conjugate": loo_pair(*rho.dims),
            "loo_pair-direct": loo_pair(*rho.dims, pairing="direct"),
            "su_pair": su_pair(*rho.dims)}
    if rho.dims == (2, 2):
        sets["pauli_loo_pair"] = pauli_loo_pair()
    return sets


def _operators(obs, i):
    """The operators the set applies to state i (one set per state, or one for all)."""
    if obs.stack_a.ndim == 4:
        return obs.stack_a[i], obs.stack_b[i]
    return obs.stack_a, obs.stack_b


def _oracle(m, da, db, obs, ops_a, ops_b):
    """(lhs, rhs) of each criterion from the per-observable formulas."""
    joint, sum_a, sum_b, cov = oracle_variance_sums(m, da, db, ops_a, ops_b)

    def parts(u_a, u_b):
        ea, eb = max(sum_a - u_a, 0.0), max(sum_b - u_b, 0.0)
        return ea, eb, np.sqrt(ea) - np.sqrt(eb)

    u_a, u_b = obs.bound_a, obs.bound_b
    ea, eb, m_term = parts(u_a, u_b)
    root = np.sqrt(ea * eb)
    out = {"lur": (joint, u_a + u_b), "tlur": (joint, u_a + u_b + m_term ** 2),
           "tlur_dual": (joint, u_a + u_b + (np.sqrt(ea) + np.sqrt(eb)) ** 2),
           "lemma1": (min(root + cov, root - cov), 0.0)}
    if obs.is_loo_pair:
        _, _, m_loo = parts(da - 1.0, db - 1.0)
        excess = joint - (da - 1.0) - (db - 1.0)
        out["nonlinear_witness"] = (excess / 2, 0.0)
        out["corollary1"] = ((excess - m_loo ** 2) / 2, 0.0)
    return out


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(DIMS),
       st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_stack_evaluators_match_per_observable_oracle(seed, dims, ranks):
    rho = _stack(seed, dims, ranks)
    da, db = dims
    for name, obs in _sets(rho).items():
        criteria = dict(SET_CRITERIA, **(LOO_CRITERIA if obs.is_loo_pair else {}))
        got = {c: evaluate(rho, obs) for c, evaluate in criteria.items()}
        for i, m in enumerate(rho.states):
            want = _oracle(m, da, db, obs, *_operators(obs, i))
            for c, verdicts in got.items():
                rhs = np.broadcast_to(verdicts.rhs, verdicts.lhs.shape)[i]
                np.testing.assert_allclose([verdicts.lhs[i], rhs], want[c], rtol=0,
                                           atol=1e-12, err_msg=f"{name} {c} state {i}")


@pytest.mark.parametrize("dims", DIMS)
def test_schmidt_factors_and_means_of_a_stack(dims):
    # unequal sides pad the shorter basis with zero operators; the kernel's
    # means there must be zero and elsewhere Tr(rho_X X_k)
    da, db = dims
    rho = _stack(7 * da + db, dims, [1, 3, da * db])
    coeffs, ops_a, ops_b = operator_schmidt(rho)
    obs = schmidt_loo_pair(rho)
    n = max(da, db) ** 2
    assert obs.stack_a.shape == (3, n, da, da) and obs.stack_b.shape == (3, n, db, db)
    assert obs.is_loo_pair
    first, _, _ = _moments(rho, obs)
    for i, m in enumerate(rho.states):
        np.testing.assert_allclose(
            sum(s * np.kron(a, b) for s, a, b in zip(coeffs[i], ops_a[i], ops_b[i])), m,
            atol=1e-12)
        for stack, d in ((obs.stack_a[i], da), (obs.stack_b[i], db)):
            assert not stack[d * d:].any()  # the padding is exactly zero
            vecs = stack[:d * d].reshape(d * d, -1)
            np.testing.assert_allclose(vecs.conj() @ vecs.T, np.eye(d * d), atol=1e-12)
        ra = oracle_partial_trace(m, da, db, "B")
        rb = oracle_partial_trace(m, da, db, "A")
        np.testing.assert_allclose(first[i, 0], [np.trace(ra @ a).real for a in obs.stack_a[i]],
                                   atol=1e-12)
        np.testing.assert_allclose(first[i, 1], [np.trace(rb @ b).real for b in obs.stack_b[i]],
                                   atol=1e-12)


@pytest.mark.parametrize("dims", DIMS)
def test_a_stack_gives_the_values_of_its_states_one_at_a_time(dims):
    rho = _stack(11 * dims[0] + dims[1], dims, [1, 2, 5, 12])
    for name, obs in _sets(rho).items():
        criteria = dict(SET_CRITERIA, **(LOO_CRITERIA if obs.is_loo_pair else {}))
        for c, evaluate in criteria.items():
            stacked = evaluate(rho, obs)
            for i, m in enumerate(rho.states):
                one = DensityMatrix(*dims, m)
                single_obs = schmidt_loo_pair(one) if name == "schmidt_loo_pair" else obs
                report = evaluate(one, single_obs)
                summary = stacked.summaries()[i]
                np.testing.assert_allclose(
                    [summary["lhs"], summary["rhs"], summary["margin"]],
                    [report.lhs, report.rhs, report.margin], rtol=0, atol=1e-12,
                    err_msg=f"{name} {c} state {i}")
                assert summary["detected"] == report.detected
    for evaluate in (eval_ppt, eval_ccnr):
        stacked = evaluate(rho).summaries()
        for i, m in enumerate(rho.states):
            report = evaluate(DensityMatrix(*dims, m))
            assert stacked[i] == {"lhs": report.lhs, "rhs": report.rhs,
                                  "margin": report.margin, "detected": report.detected}


def test_a_set_per_state_needs_as_many_states():
    rho = _stack(3, (2, 2), [1, 2, 4])
    obs = schmidt_loo_pair(rho)
    with pytest.raises(DimensionMismatchError):
        eval_lur(DensityMatrix(2, 2, rho.states[0]), obs)
    with pytest.raises(DimensionMismatchError):
        eval_lur(DensityStack(2, 2, rho.states[:2]), obs)


def test_stack_validation_names_the_first_offending_state():
    good = np.eye(4) / 4
    bad = np.diag([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValidationError) as err:
        DensityStack(2, 2, np.array([good, good, bad, bad]))
    assert err.value.state == 2 and "state 2:" in str(err.value)
    with pytest.raises(ValidationError) as err:
        DensityMatrix(2, 2, bad)
    assert str(err.value).startswith("minimum eigenvalue")


def test_sweep_names_the_point_a_stack_check_rejects(monkeypatch):
    def matrix(p):  # a column of p in, a stack out: a trace of 2 at p = 0.5 only
        return np.where(p == 0.5, 2.0, 1.0)[:, None, None] * np.eye(4) / 4

    family = StateFamily("trace_test", (2, 2), {"p": (0.0, 1.0)}, matrix)
    monkeypatch.setitem(FAMILIES, "trace_test", family)
    with pytest.raises(ValidationError) as err:
        sweep("trace_test", [GridAxis("p", 0.0, 1.0, 0.25)], ["ppt"])
    assert "point {'p': 0.5}" in str(err.value)


RANGE_ENDS = [{"seed": s, "n_terms": n} for s, n in
              ((0, 1), (2 ** 31, 1024), (7, 3), (7.0, 3.0), (11, 4))]
# points of every registered family, the ends of each declared range among them
# (horodecki's a lies in the open interval, so it takes the floats next to 0 and 1)
FAMILY_POINTS = {
    "horodecki": [{"a": a} for a in (5e-324, 1e-9, 0.05, 0.3, 0.5, 0.95,
                                     np.nextafter(1.0, 0.0))],
    "horodecki_noise": [{"a": a, "p": p} for a in (1e-9, 0.05, 0.5, 0.95)
                        for p in (0, 0.0, 0.01, 0.37, 0.99, 1, 1.0)],
    "noisy_singlet": [{"p": p} for p in (0, 0.0, 1e-300, 0.221, 0.25, 0.5, 1, 1.0)],
    "random_separable": [dict(p, dim_a=2, dim_b=2) for p in RANGE_ENDS],
    "random_separable 3x2": [dict(p, dim_a=3.0, dim_b=2) for p in RANGE_ENDS],
}


def _one_point_reference(family, a=None, p=None, dim_a=None, dim_b=None, n_terms=None,
                         seed=None):
    """The matrix of one point, built with Python floats one state at a time."""
    if family == "random_separable":
        return random_separable((dim_a, dim_b), int(n_terms), int(seed)).matrix
    if family == "noisy_singlet":
        sep = np.diag([2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0])
        return p * np.outer(SINGLET_KET, SINGLET_KET) + (1.0 - p) * sep
    pi = np.zeros(9)
    pi[6], pi[8] = np.sqrt((1 + a) / 2), np.sqrt((1 - a) / 2)
    emax = np.zeros(9)
    emax[[0, 4, 8]] = 1.0 / np.sqrt(3)
    rho = (a * np.diag([0.0, 1, 1, 1, 0, 1, 0, 1, 0]) + 3 * a * np.outer(emax, emax)
           + np.outer(pi, pi)) / (1 + 8 * a)
    return rho if p is None else p * rho + (1.0 - p) * np.eye(9) / 9


@pytest.mark.parametrize("case", sorted(FAMILY_POINTS))
def test_a_family_stack_is_its_states_one_at_a_time_bit_for_bit(case):
    assert {c.split()[0] for c in FAMILY_POINTS} == set(FAMILIES)  # every family is covered
    name = case.split()[0]
    fam, points = FAMILIES[name], FAMILY_POINTS[case]
    stack = fam.stack(points)
    assert stack.dims == fam.instantiate(**points[0]).dims
    assert np.array_equal(stack.states,
                          np.array([fam.instantiate(**p).matrix for p in points]))
    assert np.array_equal(stack.states,
                          np.array([_one_point_reference(name, **p) for p in points]))
    # the one-point stack is instantiate's state
    assert np.array_equal(fam.stack(points[-1:]).states[0], fam.instantiate(**points[-1]).matrix)


@pytest.mark.parametrize("case", sorted(FAMILY_POINTS))
def test_instantiate_validates_its_state_once(case, monkeypatch):
    calls, validated = [], linops._validated_states

    def counted(*args):
        calls.append(args[-1])
        return validated(*args)

    monkeypatch.setattr(linops, "_validated_states", counted)
    fam = FAMILIES[case.split()[0]]
    for k, point in enumerate(FAMILY_POINTS[case], 1):
        fam.instantiate(**point)
        assert calls == [2] * k  # one DensityMatrix check a state


def test_fixed_params_are_shared_by_every_point():
    fam = FAMILIES["horodecki_noise"]
    points = [{"p": p} for p in (0.0, 0.3, 1.0)] + [{"a": 0.2, "p": 0.5}]
    assert np.array_equal(fam.stack(points, {"a": 0.5}).states,
                          fam.stack([{"a": 0.5, **p} for p in points]).states)
    # a bad point or a bad fixed value fails as the merged point would
    for bad, fixed, k in (({"p": 1.5}, {"a": 0.5}, 4), ({"p": 0.5}, {"a": 2.0}, 0)):
        with pytest.raises(ParameterRangeError) as one:
            fam.instantiate(**{**fixed, **(points + [bad])[k]})
        with pytest.raises(ParameterRangeError) as err:
            fam.stack(points + [bad], fixed)
        assert str(err.value) == str(one.value) and err.value.state == k


GOOD = {"a": 0.5, "p": 0.5}
# (family, points, k): point k is the first bad point; later points fail other checks
BAD_STACKS = [
    ("horodecki_noise", [GOOD] * 3 + [{"a": 1.0, "p": 0.3}, {"a": 0.5, "p": 2.0}], 3),
    ("horodecki_noise", [GOOD, {"a": 0.5, "p": 1.5}, {"a": 0, "p": 0.2}], 1),
    ("horodecki_noise", [GOOD, {"a": 0, "p": 0.5}, {"a": 0.5, "p": 1.5}], 1),
    ("horodecki_noise", [GOOD, GOOD, {"a": 0.5, "p": "0.5"}, {"a": 2, "p": 0.5}], 2),
    ("horodecki_noise", [GOOD, {"a": 0.5, "p": True}, {"p": 0.5}], 1),
    ("horodecki_noise", [GOOD, {"p": 0.5}, {"a": 0.5, "p": 0.5, "q": 1}], 1),
    ("horodecki_noise", [GOOD, {"a": 0.5, "p": 0.5, "q": 1}, {"a": 1.0, "p": 0.5}], 1),
    ("horodecki_noise", [GOOD, {"a": float("nan"), "p": 0.5}, {"a": 0.5, "p": 7}], 1),
    ("horodecki", [{"a": 0.2}, {"a": 0.4}, {"a": 1}, {"a": 0.5}], 2),
    ("noisy_singlet", [{"p": 0.1}, {"p": -1}, {"p": None}], 1),
    ("random_separable", [{"seed": 1}, {"seed": 10 ** 400}, {"n_terms": 2.5}], 1),
    ("random_separable", [{"seed": 1}, {"n_terms": 2.5}, {"dim_a": 40}], 1),
    ("random_separable", [{"seed": 1}, {"seed": 2}, {"dim_a": 2.0, "seed": 0.5}], 2),
]


@pytest.mark.parametrize("family,points,k", BAD_STACKS)
def test_a_bad_point_raises_what_instantiate_raises_on_it(family, points, k):
    fam = FAMILIES[family]
    with pytest.raises(ParameterRangeError) as one:
        fam.instantiate(**points[k])
    with pytest.raises(type(one.value)) as err:
        fam.stack(points)
    assert str(err.value) == str(one.value)  # no "state k: " prefix, the value as given
    assert err.value.state == k


def test_a_point_of_another_bipartition_is_named():
    fam = FAMILIES["random_separable"]
    with pytest.raises(DimensionMismatchError) as err:
        fam.stack([{"seed": 1}, {"seed": 2}, {"dim_a": 3}, {"dim_a": 2.5}])
    assert str(err.value) == "a stack holds one bipartition: (3, 2) vs (2, 2)"
    assert err.value.state == 2
    with pytest.raises(DimensionMismatchError):
        fam.stack([])


def test_sweep_stacks_each_bipartition_apart():
    # an axis that changes the dimensions splits the grid into one stack each
    result = sweep("random_separable", [GridAxis("dim_a", 2, 3, 1)], ["ppt", "lur"],
                   obs_spec="schmidt_loo_pair", fixed_params={"dim_b": 3, "seed": 4})
    assert [c["params"]["dim_a"] for c in result.cells] == [2, 3]
    for cell in result.cells:
        rho = FAMILIES["random_separable"].instantiate(dim_a=cell["params"]["dim_a"],
                                                        dim_b=3, seed=4)
        assert cell["reports"]["ppt"]["margin"] == eval_ppt(rho).margin
        np.testing.assert_allclose(cell["reports"]["lur"]["lhs"],
                                   eval_lur(rho, schmidt_loo_pair(rho)).lhs, atol=1e-12)


def test_a_sweep_split_into_smaller_stacks_gives_the_same_cells(monkeypatch):
    grid = [GridAxis("a", 0.3, 0.6, 0.3), GridAxis("p", 0.0, 1.0, 0.1)]
    whole = sweep("horodecki_noise", grid, ["lur", "tlur"], obs_spec="schmidt_loo_pair")
    monkeypatch.setattr("tlurkit.scan._STACK_BYTES", 5 * 48 * 19 * 18)  # 3x3: 5 a stack
    split = sweep("horodecki_noise", grid, ["lur", "tlur"], obs_spec="schmidt_loo_pair")
    assert [c["params"] for c in split.cells] == [c["params"] for c in whole.cells]
    for a, b in zip(whole.cells, split.cells):
        for name in ("lur", "tlur"):
            assert a["reports"][name]["detected"] == b["reports"][name]["detected"]
            np.testing.assert_allclose(
                [a["reports"][name][f] for f in ("lhs", "rhs", "margin")],
                [b["reports"][name][f] for f in ("lhs", "rhs", "margin")], rtol=0, atol=1e-12)


MOMENT_CRITERIA = ["lur", "tlur", "tlur_dual", "lemma1", "c_lur", "c_tlur"]
QUBIT_DECLARED = {"opsA": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]],
                  "opsB": [[[0, -1], [-1, 0]], [[-1, 0], [0, 1]]],
                  "boundA": 1.0, "boundB": 1.0}
# (family, stack points, set spec, criteria): Schmidt, loo_pair and declared sets
SHARED_CASES = {
    "schmidt": ("horodecki_noise", [{"a": a, "p": p} for a in (0.1, 0.6)
                                    for p in (0.0, 0.5, 0.997, 1.0)],
                "schmidt_loo_pair", MOMENT_CRITERIA + ["corollary1", "nonlinear_witness"]),
    "loo_pair": ("horodecki_noise", [{"a": 0.4, "p": p} for p in (0.2, 0.9, 1.0)],
                 "loo_pair", MOMENT_CRITERIA + ["corollary1", "nonlinear_witness", "ppt"]),
    "declared": ("noisy_singlet", [{"p": p} for p in (0.0, 0.3, 1.0)],
                 QUBIT_DECLARED, MOMENT_CRITERIA + ["ccnr"]),
}


def _assert_same_verdicts(got, want):
    assert got.criterion == want.criterion
    for field in ("lhs", "rhs", "margin"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.components.keys() == want.components.keys()
    for key, value in got.components.items():
        assert np.array_equal(value, want.components[key]), key


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_criteria_sharing_moments_equal_each_criterion_alone(case, monkeypatch):
    family, points, spec, names = SHARED_CASES[case]
    rho = FAMILIES[family].stack(points)
    calls = []
    kernel = criteria._moment_kernel
    monkeypatch.setattr(criteria, "_moment_kernel",
                        lambda *args: calls.append(args) or kernel(*args))
    together = Plan(names, spec).evaluate(rho)
    assert len(calls) == 1  # one kernel call for the stack and its set
    for name, verdicts in zip(names, together):
        alone, = Plan([name], spec).evaluate(rho)
        _assert_same_verdicts(verdicts, alone)


def test_shared_moments_keep_each_stack_apart_and_nothing_after():
    fam, obs = FAMILIES["horodecki_noise"], loo_pair(3)
    stacks = [fam.stack([{"a": a, "p": p} for p in (0.5, 1.0)]) for a in (0.2, 0.7)]
    plan = Plan(MOMENT_CRITERIA, obs)
    fresh = [Plan(MOMENT_CRITERIA, obs).evaluate(rho) for rho in stacks]
    for rho, want in zip(stacks + stacks, fresh + fresh):  # in turn, with one plan
        for got, one in zip(plan.evaluate(rho), want):
            _assert_same_verdicts(got, one)
    with shared_moments():  # one block, two stacks, one set
        for rho, want in zip(stacks, fresh):
            _assert_same_verdicts(eval_tlur(rho, obs), want[1])
    assert criteria._SHARED.get() is None
    first = _moments(stacks[0], obs)
    assert _moments(stacks[0], obs)[0] is not first[0]  # no block: computed per call
    assert not first[0].flags.writeable
