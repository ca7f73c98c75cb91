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
from tlurkit.criteria import _moments
from tlurkit.errors import DimensionMismatchError, ValidationError
from tlurkit.linops import DensityStack
from tlurkit.states import FAMILIES, StateFamily, random_mixed_state

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
    def matrix(p):  # a trace of 2 at p = 0.5 only
        return np.eye(4) / 4 * (2.0 if p == 0.5 else 1.0)

    family = StateFamily("trace_test", (2, 2), {"p": (0.0, 1.0)}, matrix)
    monkeypatch.setitem(FAMILIES, "trace_test", family)
    with pytest.raises(ValidationError) as err:
        sweep("trace_test", [GridAxis("p", 0.0, 1.0, 0.25)], ["ppt"])
    assert "point {'p': 0.5}" in str(err.value)


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
