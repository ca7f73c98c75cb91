"""Independent oracle implementations used to pin expected values.

Everything here is written with explicit index loops or closed forms so the
fast reshape/einsum paths in the package are checked against slow but
obviously-correct code.
"""

import numpy as np

from tlurkit.scan import evaluate_criterion
from tlurkit.states import FAMILIES

PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def oracle_partial_trace(m, da, db, traced):
    m = np.asarray(m)
    if traced == "B":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                for k in range(db):
                    out[i, j] += m[i * db + k, j * db + k]
    else:
        out = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                for k in range(da):
                    out[i, j] += m[k * db + i, k * db + j]
    return out


def oracle_partial_transpose(m, da, db, transposed):
    m = np.asarray(m)
    out = np.zeros_like(np.asarray(m, dtype=complex))
    for ia in range(da):
        for ib in range(db):
            for ja in range(da):
                for jb in range(db):
                    if transposed == "B":
                        out[ia * db + jb, ja * db + ib] = m[ia * db + ib, ja * db + jb]
                    else:
                        out[ja * db + ib, ia * db + jb] = m[ia * db + ib, ja * db + jb]
    return out


def oracle_realign(m, da, db):
    m = np.asarray(m)
    out = np.zeros((da * da, db * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * da + j, k * db + l] = m[i * db + k, j * db + l]
    return out


def random_herm(dim, rng, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_dm_array(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


# closed forms for the noisy-singlet witnesses, derived by hand from the
# state's correlation data (basis {00,01,10,11}):
#   T_xx = T_yy = -p,  T_zz = -p + (1-p)/3,
#   bloch_A = (0,0,1-p),  bloch_B = (0,0,(1-p)/3),
#   purity_A = 1 - p + p^2/2,  purity_B = (10 - 2p + p^2)/18.
def witness_closed(p):
    return 1.0 - (5.0 * p + 1.0) / 3.0 - 4.0 * (1.0 - p) ** 2 / 9.0


def corollary1_closed(p):
    pa = 1.0 - p + p * p / 2.0
    pb = (10.0 - 2.0 * p + p * p) / 18.0
    return witness_closed(p) - 0.5 * (np.sqrt(1.0 - pa) - np.sqrt(1.0 - pb)) ** 2


def bisect_root(fn, lo, hi, tol=1e-12):
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# per-observable formulas: one np.kron and one trace per operator, the way the
# variance criteria were computed before they read stacked moments
def oracle_variance(op, rho_m):
    mean = np.trace(rho_m @ op).real
    return max(np.trace(rho_m @ op @ op).real - mean * mean, 0.0)


def oracle_variance_sums(rho_m, da, db, ops_a, ops_b):
    """(joint sum, local sum A, local sum B, covariance sum) of paired operators."""
    ra = oracle_partial_trace(rho_m, da, db, "B")
    rb = oracle_partial_trace(rho_m, da, db, "A")
    ia, ib = np.eye(da), np.eye(db)
    joint = sum(oracle_variance(np.kron(a, ib) + np.kron(ia, b), rho_m)
                for a, b in zip(ops_a, ops_b))
    cov = sum(np.trace(rho_m @ np.kron(a, b)).real
              - np.trace(ra @ a).real * np.trace(rb @ b).real
              for a, b in zip(ops_a, ops_b))
    return (joint, sum(oracle_variance(a, ra) for a in ops_a),
            sum(oracle_variance(b, rb) for b in ops_b), cov)


def oracle_loo_witness(rho_m, da, db, ops_a, ops_b):
    """(cross sum, mean-difference sum, purity A, purity B) of two LOO bases;
    a basis shorter than the other contributes zeros."""
    ra = oracle_partial_trace(rho_m, da, db, "B")
    rb = oracle_partial_trace(rho_m, da, db, "A")
    cross = mean_diff_sq = 0.0
    for k in range(max(len(ops_a), len(ops_b))):
        ga = ops_a[k] if k < len(ops_a) else None
        gb = ops_b[k] if k < len(ops_b) else None
        mean_a = np.trace(ra @ ga).real if ga is not None else 0.0
        mean_b = np.trace(rb @ gb).real if gb is not None else 0.0
        if ga is not None and gb is not None:
            cross += np.trace(rho_m @ np.kron(ga, gb)).real
        mean_diff_sq += (mean_a - mean_b) ** 2
    return cross, mean_diff_sq, np.trace(ra @ ra).real, np.trace(rb @ rb).real


def oracle_bisect(family, param, lo, hi, criterion, tol, fixed_params=None):
    """The sequential bisection: one state a probe, one midpoint a step, until
    the bracket is within ``tol`` or holds no float strictly inside; None when
    the endpoint verdicts agree."""
    fam = FAMILIES[family]

    def detected(x):
        rho = fam.instantiate(**{**(fixed_params or {}), param: float(x)})
        return evaluate_criterion(criterion, rho).detected

    v_lo = detected(lo)
    if detected(hi) == v_lo:
        return None
    a, b = float(lo), float(hi)
    while b - a > tol and a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        if detected(mid) == v_lo:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _moment_rows(ops):
    """Rows vec A_k, vec A_k^2, then vec 1 of operators (n, d, d): (2n + 1, d^2)."""
    ops = np.asarray([np.asarray(getattr(op, "matrix", op), dtype=complex) for op in ops])
    n, d = ops.shape[0], ops.shape[-1]
    return np.concatenate([ops.reshape(n, -1), (ops @ ops).reshape(n, -1),
                           np.eye(d).reshape(1, -1)])


def oracle_moments(states, da, db, ops_a, ops_b):
    """The moment kernel the set criteria read before they read LOO coefficient
    matrices, kept as an oracle, with its per-k clipping: (local sum A, local
    sum B, joint sum, covariance sum) of the paired operators, one entry per
    state of ``states`` (a matrix, or a stack (N, d, d)).

    With row-major vec, <A (x) B> = (vec A)^T R(rho^T) vec B, R the
    realignment.  The rows (vec A_k, vec A_k^2, then vec 1) give
    X = rows_A R(rho^T): its rows with vec 1 give the A side, its last row
    with rows_B the B side, and its first n rows with those of rows_B the
    cross moments.  Each variance is clipped at zero before it is summed.
    """
    rows_a, rows_b = _moment_rows(ops_a), _moment_rows(ops_b)
    n = len(ops_a)
    m = np.asarray(states)
    lead = m.shape[:-2]
    realigned_t = m.swapaxes(-1, -2).reshape(lead + (da, db, da, db)).swapaxes(-3, -2).reshape(
        lead + (da * da, db * db))
    x = rows_a @ realigned_t  # (..., 2n+1, d_B^2)
    cross = np.einsum("...kp,...kp->...k", x[..., :n, :], rows_b[..., :n, :]).real
    out = np.empty(x.shape[:-2] + (3, 2 * n))
    out[..., 0, :] = (x @ rows_b[..., -1, :, None])[..., :-1, 0].real
    out[..., 1, :] = (rows_b @ x[..., -1, :, None])[..., :-1, 0].real
    np.add(out[..., 0, :], out[..., 1, :], out=out[..., 2, :])
    out[..., 2, n:] += 2.0 * cross
    first, second = out[..., :n], out[..., n:]
    sums = np.maximum(second - first * first, 0.0).sum(axis=-1)
    cov = (cross - first[..., 0, :] * first[..., 1, :]).sum(axis=-1)
    return sums[..., 0], sums[..., 1], sums[..., 2], cov
