"""Stacks of states: the evaluators on a ``DensityStack`` against the
per-observable oracle of ``helpers``, and against the same states evaluated
one at a time."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import oracle_moments, oracle_partial_trace, oracle_variance_sums, random_herm
from tlurkit import (
    DensityMatrix, GridAxis, eval_ccnr, eval_corollary1, eval_lemma1, eval_lur,
    eval_nonlinear_witness, eval_ppt, eval_tlur, eval_tlur_dual, loo_pair,
    observables_from_spec, operator_schmidt, pauli_loo_pair, schmidt_loo_pair, su_pair, sweep,
    uncertainty_bound,
)
from tlurkit import linops, observables
from tlurkit.errors import (
    DimensionMismatchError, ParameterRangeError, TlurkitError, ValidationError,
)
from tlurkit.linops import DensityStack
from tlurkit.observables import BoundProvenance, LocalObservableSet, SchmidtFrame
from tlurkit.report import DETECTION_TOL, CriterionReport
from tlurkit.scan import DV_CRITERIA, Plan
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


def _columns(points, fill=None):
    """The points as ``StateFamily.stack``'s columns, one per parameter; a
    point without a parameter takes its value in ``fill``, else None."""
    names = dict.fromkeys(name for point in points for name in point)
    return {name: [point.get(name, (fill or {}).get(name)) for point in points]
            for name in names}


def _sets(rho):
    sets = {"schmidt_loo_pair": observables_from_spec("schmidt_loo_pair", dims=rho.dims),
            "loo_pair-conjugate": loo_pair(*rho.dims),
            "loo_pair-direct": loo_pair(*rho.dims, pairing="direct"),
            "su_pair": su_pair(*rho.dims)}
    if rho.dims == (2, 2):
        sets["pauli_loo_pair"] = pauli_loo_pair()
    return sets


def _operators(rho, obs, i):
    """The operators the set applies to state i: the Schmidt frame's are the
    state's own Schmidt pair (``schmidt_loo_pair`` of the one state)."""
    if isinstance(obs, SchmidtFrame):
        obs = schmidt_loo_pair(DensityMatrix(*rho.dims, rho.states[i]))
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
            want = _oracle(m, da, db, obs, *_operators(rho, obs, i))
            for c, verdicts in got.items():
                rhs = np.broadcast_to(verdicts.rhs, verdicts.lhs.shape)[i]
                np.testing.assert_allclose([verdicts.lhs[i], rhs], want[c], rtol=0,
                                           atol=1e-12, err_msg=f"{name} {c} state {i}")


@pytest.mark.parametrize("dims", DIMS)
def test_schmidt_factors_and_means_of_a_stack(dims):
    # operator_schmidt of a stack gives each state its own factors; the Schmidt
    # frame's sums are those of the pair A_k = G_k^A, B_k = -G_k^B they make
    da, db = dims
    rho = _stack(7 * da + db, dims, [1, 3, da * db])
    coeffs, ops_a, ops_b = operator_schmidt(rho)
    assert ops_a.shape == (3, da ** 2, da, da) and ops_b.shape == (3, db ** 2, db, db)
    frame = observables_from_spec("schmidt_loo_pair", dims=dims)
    assert frame == SchmidtFrame(da, db) and frame.is_loo_pair
    tlur, lemma1 = eval_tlur(rho, frame), eval_lemma1(rho, frame)
    for i, m in enumerate(rho.states):
        np.testing.assert_allclose(
            sum(s * np.kron(a, b) for s, a, b in zip(coeffs[i], ops_a[i], ops_b[i])), m,
            atol=1e-12)
        one = operator_schmidt(DensityMatrix(da, db, m))
        for got, want in zip((coeffs[i], ops_a[i], ops_b[i]), one):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for stack, d in ((ops_a[i], da), (ops_b[i], db)):
            vecs = stack.reshape(d * d, -1)
            np.testing.assert_allclose(vecs.conj() @ vecs.T, np.eye(d * d), atol=1e-12)
        ra = oracle_partial_trace(m, da, db, "B")
        rb = oracle_partial_trace(m, da, db, "A")
        means_a = np.array([np.trace(ra @ a).real for a in ops_a[i]])
        means_b = np.array([np.trace(rb @ b).real for b in ops_b[i]])
        k = min(da, db) ** 2  # the paired factors; the others pair with zero
        cov = -(coeffs[i].sum() - means_a[:k] @ means_b[:k])
        np.testing.assert_allclose(
            [tlur.components["local_variance_sum_A"][i], tlur.components["local_variance_sum_B"][i],
             lemma1.components["covariance_sum"][i]],
            [da - means_a @ means_a, db - means_b @ means_b, cov], rtol=0, atol=1e-12)


def _row(report) -> dict:
    """A one-state report's entries of a stack's ``summaries()`` row."""
    assert isinstance(report, CriterionReport)
    values = [report.lhs, report.rhs, report.margin, *report.components.values()]
    assert all(type(v) is float for v in values) and type(report.detected) is bool
    out = json.loads(json.dumps(report.to_dict()))
    return {key: out[key] for key in ("lhs", "rhs", "margin", "detected")}


def _rows(report, n) -> list[dict]:
    """A stack report's ``summaries()``, its verdicts checked against its margins."""
    assert isinstance(report, CriterionReport)
    assert np.array_equal(report.detected, np.asarray(report.margin) > DETECTION_TOL)
    rows = report.summaries()
    assert len(rows) == n
    return rows


@pytest.mark.parametrize("dims", DIMS)
def test_a_stack_gives_the_values_of_its_states_one_at_a_time(dims):
    # bit for bit with the same set (a bisection's verdicts are a lone state's),
    # for every registry entry: a stack's report and a state's are one record
    # type, the state's of Python floats and bools that JSON takes; the Schmidt
    # frame also against the set built from the one state's factors
    rho = _stack(11 * dims[0] + dims[1], dims, [1, 2, 5, 12])
    runs = [(entry, None, None) for entry in DV_CRITERIA.values() if not entry.needs_obs]
    runs += [(entry, name, obs) for name, obs in _sets(rho).items()
             for entry in DV_CRITERIA.values()
             if entry.needs_obs and (obs.is_loo_pair or entry.name not in LOO_CRITERIA)]
    for entry, name, obs in runs:
        rows = _rows(entry.evaluate(rho, obs), len(rho.states))
        for i, m in enumerate(rho.states):
            one = DensityMatrix(*dims, m)
            row = _row(entry.evaluate(one, obs))
            assert repr(row) == repr(rows[i]), f"{name} {entry.name} state {i}"
            if name != "schmidt_loo_pair":
                continue
            report = entry.evaluate(one, schmidt_loo_pair(one))
            np.testing.assert_allclose(
                [row["lhs"], row["rhs"], row["margin"]],
                [report.lhs, report.rhs, report.margin], rtol=0, atol=1e-12,
                err_msg=f"{name} {entry.name} state {i}")
            assert row["detected"] == report.detected


def test_a_stack_reads_the_schmidt_frame_plan_resolves(monkeypatch):
    # a stack has no one Schmidt set: schmidt_loo_pair refuses it and names
    # Plan, and the spec takes a bipartition, never a state; a sweep's Plan
    # resolves the spec once per bipartition to a frame and builds no
    # operator stack
    rho = _stack(3, (3, 3), [1, 2, 9])
    with pytest.raises(ValidationError, match="resolved by scan.Plan"):
        schmidt_loo_pair(rho)
    with pytest.raises(TypeError):
        observables_from_spec("schmidt_loo_pair", state=rho)
    with pytest.raises(DimensionMismatchError):
        eval_lur(rho, SchmidtFrame(2, 2))

    def no_stacks(*args, **kwargs):
        raise AssertionError("a sweep built Schmidt operators")

    built = []
    monkeypatch.setattr(observables, "operator_schmidt", no_stacks)
    monkeypatch.setattr("tlurkit.scan.observables_from_spec",
                        lambda spec, **kw: built.append(kw["dims"]) or observables_from_spec(spec, **kw))
    monkeypatch.setattr("tlurkit.scan._STACK_BYTES", 1)  # one state a stack
    result = sweep("horodecki_noise", [GridAxis("p", 0.0, 1.0, 0.5)], ["lur", "tlur"],
                   obs_spec="schmidt_loo_pair", fixed_params={"a": 0.3})
    assert built == [(3, 3)] and len(result.cells) == 3


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
    stack = fam.stack(_columns(points))
    assert stack.dims == fam.instantiate(**points[0]).dims
    assert np.array_equal(stack.states,
                          np.array([fam.instantiate(**p).matrix for p in points]))
    assert np.array_equal(stack.states,
                          np.array([_one_point_reference(name, **p) for p in points]))
    # the one-point stack is instantiate's state
    assert np.array_equal(fam.stack(_columns(points[-1:])).states[0],
                          fam.instantiate(**points[-1]).matrix)


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
    ps = [0.0, 0.3, 1.0, 0.5]
    assert np.array_equal(fam.stack({"p": ps}, {"a": 0.5}).states,
                          fam.stack({"a": [0.5] * 4, "p": ps}).states)
    # a column's value takes precedence over a fixed one, as in a merged point
    assert np.array_equal(fam.stack({"a": [0.2] * 4, "p": ps}, {"a": 0.5}).states,
                          fam.stack({"a": [0.2] * 4, "p": ps}).states)
    # a bad point or a bad fixed value fails as the merged point would
    for bad, fixed, k in ((1.5, {"a": 0.5}, 4), (0.5, {"a": 2.0}, 0)):
        with pytest.raises(ParameterRangeError) as one:
            fam.instantiate(**fixed, p=(ps + [bad])[k])
        with pytest.raises(ParameterRangeError) as err:
            fam.stack({"p": ps + [bad]}, fixed)
        assert str(err.value) == str(one.value) and err.value.state == k


GOOD = {"a": 0.5, "p": 0.5}
# (family, points, k): point k is the first bad point; later points fail other
# checks.  The points go in as columns, a value a point omits being the family's
# default or else None
BAD_STACKS = [
    ("horodecki_noise", [GOOD] * 3 + [{"a": 1.0, "p": 0.3}, {"a": 0.5, "p": 2.0}], 3),
    ("horodecki_noise", [GOOD, {"a": 0.5, "p": 1.5}, {"a": 0, "p": 0.2}], 1),
    ("horodecki_noise", [GOOD, {"a": 0, "p": 0.5}, {"a": 0.5, "p": 1.5}], 1),
    ("horodecki_noise", [GOOD, GOOD, {"a": 0.5, "p": "0.5"}, {"a": 2, "p": 0.5}], 2),
    ("horodecki_noise", [GOOD, {"a": 0.5, "p": True}, {"p": 0.5}], 1),
    ("horodecki_noise", [GOOD, {"a": 0.5, "p": 10 ** 400}, {"a": 0, "p": 0.5}], 1),
    ("horodecki_noise", [GOOD, {"a": 0.5, "p": -1e-300}, {"a": 1.0, "p": 0.5}], 1),
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
        fam.stack(_columns(points, fam.defaults))
    assert str(err.value) == str(one.value)  # no "state k: " prefix, the value as given
    assert err.value.state == k


# per parameter: values a point accepts alone, then values it refuses; 3 is a
# second dim_a, so points of two bipartitions can share a stack
POINT_VALUES = {
    "horodecki_noise": {"a": ([0.3, 0.7, 1e-9], [0, 1.0, 1.5, -0.2]),
                        "p": ([0, 0.0, 0.5, 1, 1.0], [1.5, -1e-300, 7])},
    "random_separable": {"dim_a": ([2, 3, 2.0, 3.0], [1, 17, 40, 2.5]),
                         "dim_b": ([2, 2.0], [1, 17, 2.5]),
                         "n_terms": ([1, 2, 2.0], [0, 2000, 2.7]),
                         "seed": ([0, 7, 7.0, 2 ** 31], [-1, 2 ** 31 + 1, 0.5])},
}
REFUSED_ANYWHERE = [True, False, "0.5", None, math.nan, math.inf, -math.inf,
                    10 ** 400, -(10 ** 400)]


@st.composite
def _family_columns(draw):
    """A family, its columns and its fixed values: each parameter (and the
    unknown ``q``, rarely) is a column, fixed, or left out, to its default
    where the family has one."""
    family = draw(st.sampled_from(sorted(POINT_VALUES)))
    n = draw(st.integers(1, 5))
    columns, fixed = {}, {}
    for name, (good, bad) in {**POINT_VALUES[family], "q": ([1], [])}.items():
        value = st.sampled_from(good * 8 + bad + REFUSED_ANYWHERE)
        where = draw(st.sampled_from(["column", "fixed", "default"] if name != "q"
                                     else ["default"] * 19 + ["column", "fixed"]))
        if where == "column":
            col = draw(st.lists(value, min_size=n, max_size=n))
            if all(type(v) is float for v in col) and draw(st.booleans()):
                col = np.array(col)
            columns[name] = col
        elif where == "fixed":
            fixed[name] = draw(value)
    assume(columns)
    return family, columns, fixed


@settings(max_examples=300, deadline=None)
@given(_family_columns())
def test_a_stack_fails_where_its_first_point_that_fails_alone_does(case):
    # the reference walks the points: each instantiated alone, then held to
    # the first point's bipartition
    family, columns, fixed = case
    fam = FAMILIES[family]
    lists = {k: col.tolist() if isinstance(col, np.ndarray) else col
             for k, col in columns.items()}
    points = [{**fixed, **{k: col[i] for k, col in lists.items()}}
              for i in range(len(next(iter(lists.values()))))]
    states, want = [], None
    for k, point in enumerate(points):
        try:
            states.append(fam.instantiate(**point))
        except TlurkitError as exc:
            want = (type(exc), str(exc), k)
            break
        if states[-1].dims != states[0].dims:
            want = (DimensionMismatchError, "a stack holds one bipartition: "
                    f"{states[-1].dims} vs {states[0].dims}", k)
            break
    if want is None:
        stack = fam.stack(columns, fixed)
        assert stack.dims == states[0].dims
        assert np.array_equal(stack.states, [rho.matrix for rho in states])
    else:
        with pytest.raises(TlurkitError) as err:
            fam.stack(columns, fixed)
        assert (type(err.value), str(err.value), err.value.state) == want


def test_a_point_of_another_bipartition_is_named():
    fam = FAMILIES["random_separable"]
    with pytest.raises(DimensionMismatchError) as err:
        fam.stack(_columns([{"seed": 1}, {"seed": 2}, {"dim_a": 3}, {"dim_a": 2.5}],
                           fam.defaults))
    assert str(err.value) == "a stack holds one bipartition: (3, 2) vs (2, 2)"
    assert err.value.state == 2
    for columns in ({}, {"seed": []}):
        with pytest.raises(DimensionMismatchError, match="at least one point"):
            fam.stack(columns)


def test_columns_name_the_point_a_check_rejects():
    fam = FAMILIES["horodecki_noise"]
    # a missing or an unknown column fails at the first point, as instantiate does
    for columns, point in (({"p": [0.5, 0.7]}, {"p": 0.5}),
                           ({"a": [0.5, 0.5], "p": [0.5, 0.7], "q": [1, 2]},
                            {"a": 0.5, "p": 0.5, "q": 1})):
        with pytest.raises(ParameterRangeError) as one:
            fam.instantiate(**point)
        with pytest.raises(ParameterRangeError) as err:
            fam.stack(columns)
        assert str(err.value) == str(one.value) and err.value.state == 0
    # an array column is checked by its values' types, as a list is; its
    # failing value prints as a Python number, and a bool array names its
    # parameter
    for columns, message in (
            ({"a": np.array([0.5, 2.0]), "p": np.array([1, 1])},
             "a must lie in (0.0, 1.0) for family 'horodecki_noise', got 2.0"),
            ({"a": np.array([0.5, 0.5]), "p": np.array([1, 7])},
             "p must lie in [0.0, 1.0] for family 'horodecki_noise', got 7"),
            ({"a": np.array([0.5, 0.5]), "p": np.array([True, False])},
             "p must be a number for family 'horodecki_noise', got True")):
        with pytest.raises(ParameterRangeError) as err:
            fam.stack(columns)
        assert str(err.value) == message
    for columns in ({"a": [0.5, 0.5], "p": [0.5]}, {"a": 0.5, "p": [0.5]},
                    {"a": [[0.5]], "p": [[0.5]]}):
        with pytest.raises(DimensionMismatchError, match="1-D and of one length"):
            fam.stack(columns)


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
    # _stack_size's rule: 96 bytes for each of the 9^2 entries of a 3x3 state
    monkeypatch.setattr("tlurkit.scan._STACK_BYTES", 5 * 96 * 9 ** 2)
    sizes, stack = [], StateFamily.stack

    def sized(self, columns, fixed=None):
        sizes.append(len(columns["p"]))
        return stack(self, columns, fixed)

    monkeypatch.setattr(StateFamily, "stack", sized)
    split = sweep("horodecki_noise", grid, ["lur", "tlur"], obs_spec="schmidt_loo_pair")
    assert sizes == [5, 5, 5, 5, 2]  # the 22 points, 5 a stack
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
    rho = FAMILIES[family].stack(_columns(points))
    calls = {"records": 0, "coefficients": 0}
    records, coefficients = observables.Moments, observables.loo_coefficients

    def counted(name, fn):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

    monkeypatch.setattr(observables, "Moments", counted("records", records))
    monkeypatch.setattr(observables, "loo_coefficients", counted("coefficients", coefficients))
    together = Plan(names, spec).evaluate(rho)
    assert calls == {"records": 1, "coefficients": 1}  # one C and one record for the stack
    for name, verdicts in zip(names, together):
        alone, = Plan([name], spec).evaluate(rho)
        _assert_same_verdicts(verdicts, alone)


def test_a_plan_reads_each_stack_its_own_read_only_record():
    fam, obs = FAMILIES["horodecki_noise"], loo_pair(3)
    stacks = [fam.stack({"p": [0.5, 1.0]}, {"a": a}) for a in (0.2, 0.7)]
    plan = Plan(MOMENT_CRITERIA, obs)
    fresh = [Plan(MOMENT_CRITERIA, obs).evaluate(rho) for rho in stacks]
    for rho, want in zip(stacks + stacks, fresh + fresh):  # in turn, with one plan
        for got, one in zip(plan.evaluate(rho), want):
            _assert_same_verdicts(got, one)
    record = obs.moments(stacks[0])
    assert record.moments(stacks[0]) is record
    assert not record.sums.flags.writeable
    with pytest.raises(AttributeError):
        record.sums = np.zeros_like(record.sums)
    _assert_same_verdicts(eval_tlur(stacks[0], record), fresh[0][1])
    # a record answers only for the state it was read from, even an equal one
    twin = fam.stack({"p": [0.5, 1.0]}, {"a": 0.2})
    for rho in (stacks[1], twin):
        with pytest.raises(ValidationError, match="another state"):
            eval_tlur(rho, record)


ALL_SET_CRITERIA = ["lur", "tlur", "tlur_dual", "lemma1", "c_lur", "c_tlur",
                    "nonlinear_witness", "corollary1"]


@functools.lru_cache(maxsize=None)
def _declared_set(d):
    """Random Hermitian qubit or qutrit operators, declared with the bounds
    ``uncertainty_bound`` gives them (the qutrit sides are certified by the
    seeded minimizer: built once)."""
    rng = np.random.default_rng(40 + d)
    ops = [[random_herm(d, rng) for _ in range(3)] for _ in "AB"]
    bounds = [uncertainty_bound(side, mode="analytic" if d == 2 else "numeric", restarts=4)[0]
              for side in ops]
    assert min(bounds) > 0.0
    return LocalObservableSet(*ops, *bounds, BoundProvenance("declared"))


def _oracle_summaries(sums, u, dims, loo):
    """{criterion: (lhs, rhs, margin)} from the oracle's (local A, local B,
    joint, cov) against bounds u = (U_A, U_B); the LOO witnesses read d - 1."""
    local_a, local_b, joint, cov = sums

    def excess(bounds):
        ea, eb = np.maximum(local_a - bounds[0], 0.0), np.maximum(local_b - bounds[1], 0.0)
        return ea, eb, np.sqrt(ea) - np.sqrt(eb)

    ea, eb, m = excess(u)
    u_sum = u[0] + u[1]
    root = np.sqrt(ea * eb)
    lemma = np.minimum(root + cov, root - cov)
    c_lur, c_tlur = 1.0 - joint / u_sum, 1.0 - (joint - m * m) / u_sum
    dual = u_sum + (np.sqrt(ea) + np.sqrt(eb)) ** 2
    out = {"lur": (joint, u_sum, u_sum - joint),
           "tlur": (joint, u_sum + m * m, u_sum + m * m - joint),
           "tlur_dual": (joint, dual, joint - dual),
           "lemma1": (lemma, 0.0, -lemma),
           "c_lur": (c_lur, 0.0, c_lur), "c_tlur": (c_tlur, 0.0, c_tlur)}
    if loo:
        d_sum = dims[0] + dims[1] - 2.0
        _, _, m_loo = excess((dims[0] - 1.0, dims[1] - 1.0))
        witness = (joint - d_sum) / 2
        corollary = (joint - d_sum - m_loo * m_loo) / 2
        out["nonlinear_witness"] = (witness, 0.0, -witness)
        out["corollary1"] = (corollary, 0.0, -corollary)
    return out


def _assert_matches_oracle(verdicts, want, names, label):
    for name, got in zip(names, verdicts):
        lhs, rhs, margin = (np.broadcast_to(x, got.lhs.shape) for x in want[name])
        np.testing.assert_allclose(
            [got.lhs, np.broadcast_to(got.rhs, got.lhs.shape), got.margin], [lhs, rhs, margin],
            rtol=0, atol=1e-12, err_msg=f"{label} {name}")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(DIMS), st.data())
def test_every_set_criterion_matches_the_moment_kernel_oracle(seed, dims, data):
    # the criteria read three sums of one LOO coefficient matrix per state; the
    # per-k moment kernel they replaced gives the same lhs, rhs and margin
    da, db = dims
    ranks = data.draw(st.lists(st.integers(1, da * db), min_size=1, max_size=4), label="ranks")
    rho = _stack(seed, dims, ranks)
    sets = {f"{builder.__name__}-{pairing}": builder(da, db, pairing=pairing)
            for builder in (loo_pair, su_pair) for pairing in ("conjugate", "direct")}
    if dims == (2, 2):
        sets["pauli_loo_pair"] = pauli_loo_pair()
    if da == db:
        sets["declared"] = _declared_set(da)
    for label, obs in sets.items():
        names = [n for n in ALL_SET_CRITERIA if obs.is_loo_pair or n not in LOO_CRITERIA]
        sums = oracle_moments(rho.states, da, db, obs.stack_a, obs.stack_b)
        want = _oracle_summaries(sums, (obs.bound_a, obs.bound_b), dims, obs.is_loo_pair)
        _assert_matches_oracle(Plan(names, obs).evaluate(rho), want, names, label)
    _assert_schmidt_frame_matches_oracle(Plan(ALL_SET_CRITERIA, "schmidt_loo_pair"), rho)


def _schmidt_frame_sums(rho):
    """The oracle's four sums of the Schmidt spec: those of the pair of
    operator_schmidt's factors."""
    da, db = rho.dims
    _, ops_a, ops_b = operator_schmidt(rho)
    n = max(da, db) ** 2
    pad = [np.zeros((len(rho.states), n - ops.shape[1]) + ops.shape[2:]) for ops in (ops_a, ops_b)]
    pairs = np.concatenate([ops_a, pad[0]], axis=1), -np.concatenate([ops_b, pad[1]], axis=1)
    return np.transpose([oracle_moments(m, da, db, a, b) for m, a, b in zip(rho.states, *pairs)])


def _assert_schmidt_frame_matches_oracle(plan, rho):
    """The Schmidt spec through ``plan``, against the oracle."""
    want = _oracle_summaries(_schmidt_frame_sums(rho), np.subtract(rho.dims, 1.0), rho.dims, True)
    _assert_matches_oracle(plan.evaluate(rho), want, ALL_SET_CRITERIA, "schmidt_loo_pair")


def _exact_side(sums, dims):
    """The oracle's sums with the local sum of a side of dimension 1 at its
    exact value 0 (only multiples of 1 act there), not at round-off."""
    return [np.zeros_like(x) if k < 2 and dims[k] == 1 else x for k, x in enumerate(sums)]


@pytest.mark.parametrize("dims", [(1, 2), (2, 1), (1, 3)])
def test_a_side_of_dimension_one_matches_the_moment_kernel_oracle(dims):
    # a 1x1 side's LOO basis is the 1x1 identity: a declared set with such a
    # side, and the default Schmidt frame of such a bipartition, evaluate
    # like any other.  Every operator on that side has variance exactly 0, so
    # its local sum is 0.0.  The oracle's is round-off (below 1e-15), which
    # its own square roots (in the excess terms) lift to 1.1e-7 at 1x3; the
    # criteria are held to 1e-12 against the oracle's sums with that one sum
    # at its exact 0, the other three sums as the oracle gives them
    da, db = dims
    side = dims.index(1)
    rho = _stack(7, dims, [1, 2, da * db])
    rng = np.random.default_rng(11)
    ops = [[random_herm(d, rng) for _ in range(3)] for d in dims]
    bounds = [0.0 if d == 1 else uncertainty_bound(side, mode="analytic" if d == 2 else "numeric",
                                                    restarts=4)[0]
              for side, d in zip(ops, dims)]
    obs = LocalObservableSet(*ops, *bounds, BoundProvenance("declared"))
    declared = [n for n in ALL_SET_CRITERIA if n not in LOO_CRITERIA]
    # the default spec of the bipartition is its Schmidt frame
    for label, names, plan, oset, sums, u in (
            ("declared", declared, Plan(declared, obs), obs,
             oracle_moments(rho.states, da, db, obs.stack_a, obs.stack_b), bounds),
            ("schmidt_loo_pair", ALL_SET_CRITERIA, Plan(ALL_SET_CRITERIA),
             observables_from_spec("schmidt_loo_pair", dims=dims),
             _schmidt_frame_sums(rho), np.subtract(dims, 1.0))):
        got = oset.moments(rho).sums
        np.testing.assert_allclose(got, np.transpose(sums), rtol=0, atol=1e-12)
        assert (got[:, side] == 0.0).all() and (np.abs(sums[side]) < 1e-15).all()
        want = _oracle_summaries(_exact_side(sums, dims), u, dims, oset.is_loo_pair)
        _assert_matches_oracle(plan.evaluate(rho), want, names, label)
