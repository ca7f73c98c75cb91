import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    I2, PX, PY, PZ,
    oracle_partial_trace, oracle_partial_transpose, oracle_realign,
    random_dm_array, random_herm,
)
from tlurkit import (
    DensityMatrix, HermitianOperator, min_eigenvalue, partial_trace,
    partial_transpose, purity, realign, singlet, trace_norm, variance,
)
from tlurkit import linops
from tlurkit.errors import DimensionMismatchError, ValidationError
from tlurkit.linops import DensityStack, hermiticity_residual, non_hermitian
from tlurkit.states import FAMILIES, horodecki33, random_separable


def test_partial_trace_singlet_is_maximally_mixed():
    for side in ("A", "B"):
        np.testing.assert_allclose(partial_trace(singlet(), side), I2 / 2, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    ra, rb = random_dm_array(2, rng), random_dm_array(3, rng)
    rho = DensityMatrix(2, 3, np.kron(ra, rb))
    np.testing.assert_allclose(partial_trace(rho, "B"), ra, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, "A"), rb, atol=1e-12)


def test_partial_trace_horodecki_against_loop_oracle():
    rho = horodecki33(0.5)
    red = partial_trace(rho, "A")
    np.testing.assert_allclose(red, oracle_partial_trace(rho.matrix, 3, 3, "A"),
                               atol=1e-13)
    assert abs(np.trace(red).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(red).min() > -1e-12


@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
def test_partial_ops_match_oracles(seed, dims):
    da, db = dims
    rho = random_separable(dims, 3, seed)
    for side in ("A", "B"):
        np.testing.assert_allclose(
            partial_trace(rho, side), oracle_partial_trace(rho.matrix, da, db, side),
            atol=1e-12)
        pt = partial_transpose(rho, side)
        np.testing.assert_allclose(
            pt, oracle_partial_transpose(rho.matrix, da, db, side), atol=1e-12)
        assert abs(np.trace(pt).real - 1.0) < 1e-12
    np.testing.assert_allclose(
        realign(rho), oracle_realign(rho.matrix, da, db), atol=1e-12)


def test_partial_transpose_of_singlet_has_negative_eigenvalue():
    w = np.linalg.eigvalsh(partial_transpose(singlet(), "B"))
    assert abs(w.min() + 0.5) < 1e-12


def test_partial_transpose_of_product_state_stays_psd():
    rng = np.random.default_rng(5)
    rho = DensityMatrix(2, 2, np.kron(random_dm_array(2, rng), random_dm_array(2, rng)))
    assert min_eigenvalue(partial_transpose(rho, "B")) > -1e-12


def test_realign_examples():
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    pure = DensityMatrix(2, 2, np.outer(ket00, ket00))
    r = realign(pure)
    assert np.linalg.matrix_rank(r) == 1
    assert abs(trace_norm(r) - 1.0) < 1e-12

    mixed = DensityMatrix(3, 3, np.eye(9) / 9)
    assert abs(trace_norm(realign(mixed)) - 1.0 / 3.0) < 1e-12

    assert abs(trace_norm(realign(singlet())) - 2.0) < 1e-12


@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_realigned_product_trace_norm(seed, dims):
    rng = np.random.default_rng(seed)
    ra, rb = random_dm_array(dims[0], rng), random_dm_array(dims[1], rng)
    rho = DensityMatrix(dims[0], dims[1], np.kron(ra, rb))
    expected = np.sqrt(purity(ra) * purity(rb))
    assert abs(trace_norm(realign(rho)) - expected) < 1e-9


def test_expectation_and_variance_basics():
    ket0 = DensityMatrix(1, 2, np.diag([1.0, 0.0]))
    assert variance(PZ, ket0) == 0.0
    assert abs(variance(PX, ket0) - 1.0) < 1e-12
    mixed = DensityMatrix(1, 2, I2 / 2)
    assert abs(variance(PZ, mixed) - 1.0) < 1e-12
    with pytest.raises(DimensionMismatchError):
        variance(PZ, singlet())


@given(st.integers(0, 10**6))
def test_variance_nonnegative_and_zero_on_eigenstates(seed):
    rng = np.random.default_rng(seed)
    h = random_herm(3, rng)
    rho = random_dm_array(3, rng)
    assert variance(h, rho) >= 0.0
    w, v = np.linalg.eigh(h)
    eigstate = np.outer(v[:, 0], v[:, 0].conj())
    assert variance(h, eigstate) < 1e-10


def test_trace_norm_diagonal():
    assert abs(trace_norm(np.diag([3.0, -4.0])) - 7.0) < 1e-12


def test_svd_of_realigned_singlet():
    s = np.linalg.svd(realign(singlet()), compute_uv=False)
    np.testing.assert_allclose(s, [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(2, 2, np.eye(4))  # trace 4
    bad = np.eye(4) / 4
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(2, 2, bad)
    neg = np.diag([0.75, 0.45, -0.1, -0.1])
    with pytest.raises(ValidationError):
        DensityMatrix(2, 2, neg)
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(2, 3, np.eye(4) / 4)


def test_hermitian_operator_validation():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    op = HermitianOperator(PY)
    assert op.dim == 2
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0  # frozen storage


def test_hermiticity_residual_leaves_its_input_unchanged():
    # a real array's ndarray.conj() is the array itself, which must not be
    # overwritten with s - s^T
    rng = np.random.default_rng(5)
    real = rng.standard_normal((3, 4, 4))
    for m in (real, real.astype(complex), real + 1j * rng.standard_normal((3, 4, 4))):
        before = m.copy()
        resid = hermiticity_residual(m)
        assert np.array_equal(m, before)
        np.testing.assert_array_equal(resid, np.abs(m - m.conj().swapaxes(-1, -2)))
    assert np.array_equal(hermiticity_residual(real), hermiticity_residual(real.astype(complex)))


def test_non_hermitian_flags_each_matrix_against_its_own_scale():
    # the residual may reach 1e-10 times the max-norm where that norm is above 1
    sym = np.eye(3)[None].repeat(4, axis=0)
    sym[1, 0, 1] += 5e-11  # within 1e-10 of scale 1
    sym[2] *= 1e3
    sym[2, 0, 1] += 5e-8  # within 1e-10 of scale 1e3, though above 1e-10
    sym[3, 0, 1] += 2e-10  # above 1e-10 of scale 1
    for m in (sym, sym.astype(complex)):
        assert non_hermitian(m).tolist() == [False, False, False, True]
        assert non_hermitian(m[:3]).tolist() == [False, False, False]
        assert non_hermitian(m[3]).shape == () and non_hermitian(m[3])


def _real_states(n):
    return FAMILIES["horodecki_noise"].matrix(a=np.linspace(0.05, 0.95, n),
                                              p=np.linspace(0.0, 1.0, n))


def test_a_real_stack_validates_to_the_bytes_of_its_complex_copy():
    raw = _real_states(11)
    assert raw.dtype == np.float64
    before = raw.copy()
    for real, cplx in ((DensityStack(3, 3, raw), DensityStack(3, 3, raw.astype(complex))),
                       (DensityMatrix(3, 3, raw[4]), DensityMatrix(3, 3, raw[4].astype(complex)))):
        for out in (real.states, cplx.states):
            assert out.dtype == complex and not out.flags.writeable
        assert real.states.tobytes() == cplx.states.tobytes()
    assert np.array_equal(raw, before)
    given = raw.astype(complex)
    stack = DensityStack(3, 3, given)
    assert not np.shares_memory(stack.states, given)  # a copy, never the caller's array


def _bad_states():
    good = np.eye(9) / 9
    nonfinite, nonherm, negeig = good.copy(), good.copy(), good.copy()
    nonfinite[4, 4] = np.inf
    nonherm[0, 1] = 0.01
    negeig[0, 8] = negeig[8, 0] = 0.3
    # a trace whose digits depend on the order of the sum
    trace = np.diag(np.random.default_rng(2).uniform(0.05, 0.2, 9))
    return {"non-finite": nonfinite, "non-Hermitian": nonherm, "trace": trace,
            "negative eigenvalue": negeig}


@pytest.mark.parametrize("case", sorted(_bad_states()))
def test_a_bad_real_state_fails_as_its_complex_copy(case):
    bad, good = _bad_states()[case], _real_states(2)
    seen = {}
    for dtype in (float, complex):
        for kind, make in (("matrix", lambda: DensityMatrix(3, 3, bad.astype(dtype))),
                           ("stack", lambda: DensityStack(
                               3, 3, np.concatenate([good, bad[None]]).astype(dtype)))):
            with pytest.raises(ValidationError) as err:
                make()
            seen.setdefault(kind, []).append((str(err.value), err.value.state))
    for kind, (real, cplx) in seen.items():
        assert real == cplx, kind
    assert seen["stack"][0][1] == 2
    if case == "trace":
        assert "j)" in seen["matrix"][0][0]  # printed as a complex number


_FAILURES = {  # a 2x2 state that fails one check, and the text it fails with
    "non-finite": (np.diag([np.nan, 0.25, 0.25, 0.25]),
                   "density matrix has non-finite entries"),
    "non-Hermitian": (np.eye(4) / 4 + np.eye(4, k=1) * 0.01,
                      "density matrix is not Hermitian within tolerance"),
    "trace": (np.eye(4) * 0.375, "trace is (1.5+0j), expected 1 within 1e-10"),
    "eigenvalue": (np.diag([0.5, 0.5, 0.1, -0.1]),
                   "minimum eigenvalue -1.000e-01 below -1e-10"),
}


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("case", sorted(_FAILURES))
def test_a_real_stack_fails_exactly_as_its_complex_copy(case, dtype):
    # a float64 input is checked in real arithmetic, a complex one in complex:
    # each failure keeps its type, its text and error.state
    bad, text = _FAILURES[case]
    with pytest.raises(ValidationError) as err:
        DensityMatrix(2, 2, bad.astype(dtype))
    assert type(err.value) is ValidationError
    assert (str(err.value), err.value.state) == (text, 0)
    stack = np.array([np.eye(4) / 4, np.eye(4) / 4, bad]).astype(dtype)
    with pytest.raises(ValidationError) as err:
        DensityStack(2, 2, stack)
    assert type(err.value) is ValidationError
    assert (str(err.value), err.value.state) == (f"state 2: {text}", 2)


def test_a_real_trace_near_the_tolerance_decides_as_the_complex_sum():
    # a real trace more than 5e-11 from 1 is summed again as the complex copy
    # sums it, so a state on either side of 1e-10 passes or fails as that copy
    for excess, passes in ((0.7e-10, True), (0.99e-10, True), (1.01e-10, False)):
        m = np.diag([0.25, 0.25, 0.25, 0.25 + excess])
        for dtype in (float, complex):
            stack = np.array([np.eye(4) / 4, m]).astype(dtype)
            if passes:
                DensityStack(2, 2, stack)
            else:
                with pytest.raises(ValidationError, match=r"^state 1: trace is \(1\.0000000001"):
                    DensityStack(2, 2, stack)


def _count_min_eigenvalues(monkeypatch) -> list:
    """The number of matrices each ``min_eigenvalues`` call of the validation
    takes."""
    calls, original = [], linops.min_eigenvalues

    def counted(m):
        calls.append(len(m) if m.ndim == 3 else 1)
        return original(m)

    monkeypatch.setattr(linops, "min_eigenvalues", counted)
    return calls


@pytest.mark.parametrize("dtype", [float, complex])
def test_positivity_fails_only_below_the_clip_and_eigvalsh_names_the_state(dtype, monkeypatch):
    calls = _count_min_eigenvalues(monkeypatch)
    # at exactly -1e-10, m + s * 1 (s short of 1e-10) is indefinite: the
    # Cholesky pass fails, and the rule (below -1e-10) passes the state
    edge = np.diag([0.5, 0.5, 1e-10, -1e-10]).astype(dtype)
    DensityMatrix(2, 2, edge)
    assert calls == [1]
    below = np.diag([0.5, 0.5, 2e-10, -2e-10]).astype(dtype)
    with pytest.raises(ValidationError) as err:
        DensityMatrix(2, 2, below)
    assert str(err.value) == "minimum eigenvalue -2.000e-10 below -1e-10"
    with pytest.raises(ValidationError) as err:
        DensityStack(2, 2, np.array([np.eye(4) / 4, edge, below, below]))
    assert str(err.value) == "state 2: minimum eigenvalue -2.000e-10 below -1e-10"
    assert err.value.state == 2 and calls == [1, 1, 4]
    # 1e-13 below the clip, in a random basis whose every entry carries
    # round-off, a state of each bipartition still fails as eigvalsh reads it
    for d in (4, 9, 16):
        rng = np.random.default_rng(d)
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) if dtype is float else
                            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        lam = rng.uniform(0.1, 1.0, d)
        lam *= (1 + 1e-10 + 1e-13) / (lam.sum() - lam[0])
        lam[0] = -1e-10 - 1e-13
        m = (u * lam) @ u.conj().T
        m = (m + m.conj().T) / 2
        with pytest.raises(ValidationError) as err:
            DensityStack(int(d ** 0.5), int(d ** 0.5), np.array([np.eye(d) / d, m]))
        assert str(err.value) == "state 1: minimum eigenvalue -1.001e-10 below -1e-10"


def test_valid_states_pass_one_cholesky_pass_without_eigvalsh(monkeypatch):
    calls = _count_min_eigenvalues(monkeypatch)
    rng = np.random.default_rng(9)
    for da, db in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:  # rank-1 pure states
        real = rng.standard_normal((4, da * db))
        for kets in (real, real + 1j * rng.standard_normal(real.shape)):
            pure = np.einsum("ki,kj->kij", kets, kets.conj())
            pure /= np.trace(pure, axis1=1, axis2=2)[:, None, None]
            DensityStack(da, db, pure)
            for m in pure:
                DensityMatrix(da, db, m)
    FAMILIES["horodecki_noise"].stack({"a": np.full(101, 0.05),
                                      "p": np.linspace(0.0, 1.0, 101)})
    DensityStack(3, 3, np.array([random_dm_array(9, rng) for _ in range(5)]))
    assert calls == []
