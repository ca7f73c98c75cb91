"""Inputs, reference computations and output checks, made without tlurkit.

Every expected value here comes from numpy/scipy code in this file and
from two results of the literature:

* Schmidt-LUR detects everything CCNR detects (Guehne, Mechler, Toth &
  Adam, PRA 74, 010301(R) (2006)): with the Schmidt observables the joint
  variance sum is d_A + d_B - 2 sum_k s_k - sum_k (<G_k^A> - <G_k^B>)^2, and
  sum_k s_k is the trace norm of the realigned state.
* Every state with Tr rho^2 <= 1/(d - 1) is separable (Gurvits & Barnum,
  PRA 66, 062311 (2002)), so no test may fire there.

Each ``check_*`` function takes the outputs a workload collected and
returns a list of failure messages, each starting with the name of the
check that failed; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np

DETECT_TOL = 1e-9  # verdicts count as "detected" above this margin
ID_TOL = 1e-9      # agreement required of the closed-form identities

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# --------------------------------------------------------------------------
# linear algebra, written out here rather than imported from tlurkit


def realign(m: np.ndarray, da: int, db: int) -> np.ndarray:
    """R[(i,j),(k,l)] = rho[(i,k),(j,l)]; its trace norm is convention-free."""
    return m.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def reduced(m: np.ndarray, da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    t = m.reshape(da, db, da, db)
    return np.einsum("ijkj->ik", t), np.einsum("jijk->ik", t)


def purity(m: np.ndarray) -> float:
    return float(np.real(np.vdot(m, m)))


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis: E_jj, (E_jk + E_kj)/sqrt2, i(E_jk - E_kj)/sqrt2."""
    out = []
    for j in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[j, j] = 1.0
        out.append(e)
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1 / math.sqrt(2)
            a = np.zeros((d, d), dtype=complex)
            a[j, k], a[k, j] = 1j / math.sqrt(2), -1j / math.sqrt(2)
            out += [s, a]
    return out


def schmidt_identity(m: np.ndarray, da: int, db: int) -> tuple[float, float]:
    """(lhs, rhs) of the tightened test with the state's own Schmidt observables.

    lhs = d_A + d_B - 2 sum s_k - sum (<G_k^A> - <G_k^B>)^2 from an SVD of the
    real coefficients c_kl = Tr(rho F_k x F_l); rhs = (d_A - 1) + (d_B - 1) + M^2
    with M = sqrt(1 - Tr rho_A^2) - sqrt(1 - Tr rho_B^2).  Only square
    (d_A = d_B) generic states have a unique decomposition to compare with.
    """
    fa, fb = hermitian_basis(da), hermitian_basis(db)
    coeff = np.array([[np.real(np.trace(m @ np.kron(x, y))) for y in fb] for x in fa])
    u, s, vt = np.linalg.svd(coeff)
    ra, rb = reduced(m, da, db)
    mean_fa = np.array([np.real(np.trace(ra @ x)) for x in fa])
    mean_fb = np.array([np.real(np.trace(rb @ y)) for y in fb])
    diff = u.T @ mean_fa - vt @ mean_fb
    lhs = da + db - 2.0 * s.sum() - float(diff @ diff)
    mm = math.sqrt(max(1.0 - purity(ra), 0.0)) - math.sqrt(max(1.0 - purity(rb), 0.0))
    return lhs, (da - 1.0) + (db - 1.0) + mm * mm


def schmidt_gap(m: np.ndarray, da: int, db: int) -> float:
    """Smallest gap between Schmidt coefficients (uniqueness of the decomposition)."""
    s = np.linalg.svd(realign(m, da, db), compute_uv=False)
    return float(np.min(np.abs(np.diff(s))))


def pauli_lur_lhs(m: np.ndarray) -> float:
    """sum_k Var(sigma_k x 1 + 1 x sigma_k) on a two-qubit state."""
    total = 0.0
    for p in PAULIS:
        j = np.kron(p, np.eye(2)) + np.kron(np.eye(2), p)
        mean = np.real(np.trace(m @ j))
        total += np.real(np.trace(m @ j @ j)) - mean * mean
    return float(total)


# --------------------------------------------------------------------------
# the state families, built from their definitions


def horodecki_noise(a: float, p: float) -> np.ndarray:
    """p * sigma_a + (1 - p) I/9 with the standard 3x3 bound entangled sigma_a."""
    m = np.zeros((9, 9))
    for i in range(9):
        m[i, i] = a
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            m[i, j] = a
    m[6, 6] = m[8, 8] = (1 + a) / 2
    m[6, 8] = m[8, 6] = math.sqrt(1 - a * a) / 2
    return p * m / (8 * a + 1) + (1 - p) * np.eye(9) / 9


def noisy_singlet_witness(p: float) -> float:
    """LOO nonlinear witness on p * singlet + (1-p)(2/3|00><00| + 1/3|01><01|)."""
    q = 1 - p
    return 1 - 2 * p - q / 3 - (4 / 9) * q * q


def noisy_singlet_corollary1(p: float) -> float:
    q = 1 - p
    purity_term = 0.5 * (math.sqrt((1 - q * q) / 2) - math.sqrt((1 - q * q / 9) / 2)) ** 2
    return noisy_singlet_witness(p) - purity_term


def example2_roots() -> dict[str, float]:
    """Verdict flips along p in [0, 1]: the closed forms' roots, and p = 0 for PPT."""
    from scipy.optimize import brentq

    return {
        "nonlinear_witness": brentq(noisy_singlet_witness, 1e-6, 1.0, xtol=1e-14),
        "corollary1": brentq(noisy_singlet_corollary1, 1e-6, 1.0, xtol=1e-14),
        "ppt": 0.0,
    }


def example2_roots_apart() -> dict[str, float]:
    """example2_roots computed in a child process, so that scipy is never
    imported into a measured process and does not count in its memory."""
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout)


# --------------------------------------------------------------------------
# fig1_sweep


def fig1_reference(a: float, p: float) -> tuple[float, float]:
    """(trace norm of the realigned state, purity) at one grid point."""
    m = horodecki_noise(a, p)
    return trace_norm(realign(m, 3, 3)), purity(m)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_fig1(outputs, expected_points, refs) -> list[str]:
    """outputs: (op index, (cells, csv text)); expected_points[op index] is the
    list of (a, p) the op asked for; refs maps (a, p) to fig1_reference."""
    fails = []
    for i, (cells, text) in outputs:
        want = expected_points[i]
        got = [(c["params"]["a"], c["params"]["p"]) for c in cells]
        if len(got) != len(want) or any(
                abs(ga - wa) > 1e-12 or abs(gp - wp) > 1e-12
                for (ga, gp), (wa, wp) in zip(got, want)):
            fails.append(f"grid: op {i} swept {len(got)} points, not the {len(want)} asked for")
            continue
        for (a, p), c in zip(want, cells):
            lur, tlur = c["reports"]["lur"], c["reports"]["tlur"]
            tn, pur = refs[(a, p)]
            where = f"op {i} (a={a}, p={p})"
            if lur["rhs"] != 4.0:
                fails.append(f"lur_rhs: {where} rhs {lur['rhs']!r} != 4")
            if tlur["margin"] < lur["margin"] - 1e-12:
                fails.append(f"tlur_dominates: {where} tlur margin {tlur['margin']!r} "
                             f"< lur margin {lur['margin']!r}")
            if lur["detected"] and not tlur["detected"]:
                fails.append(f"tlur_dominates: {where} lur detects, tlur does not")
            if lur["lhs"] > 6.0 - 2.0 * tn + ID_TOL:
                fails.append(f"ccnr_bound: {where} lur lhs {lur['lhs']!r} > "
                             f"6 - 2|R|_1 = {6.0 - 2.0 * tn!r}")
            if pur <= 1 / 8 and (lur["detected"] or tlur["detected"]):
                fails.append(f"separable_ball: {where} detection at purity {pur!r} <= 1/8")
            for rep in (lur, tlur):
                if rep["detected"] != (rep["margin"] > DETECT_TOL):
                    fails.append(f"verdict: {where} detected={rep['detected']} "
                                 f"with margin {rep['margin']!r}")
        fails += _check_fig1_csv(i, cells, text)
    return fails


def _check_fig1_csv(i, cells, text) -> list[str]:
    rows = _csv_rows(text)
    header = ["family", "a", "p", "criterion", "lhs", "rhs", "margin", "detected"]
    if not rows or rows[0] != header or len(rows) != 1 + 2 * len(cells):
        return [f"csv: op {i} has {len(rows)} rows or a wrong header"]
    want = []
    for c in cells:
        for name in ("lur", "tlur"):
            r = c["reports"][name]
            want.append(["horodecki_noise", c["params"]["a"], c["params"]["p"], name,
                         r["lhs"], r["rhs"], r["margin"], r["detected"]])
    for row, w in zip(rows[1:], want):
        try:
            got = [row[0], float(row[1]), float(row[2]), row[3], float(row[4]),
                   float(row[5]), float(row[6]), {"true": True, "false": False}[row[7]]]
        except (ValueError, KeyError, IndexError):
            return [f"csv: op {i} row {row!r} does not parse"]
        if got != w:
            return [f"csv: op {i} row {row!r} differs from the sweep result"]
    return []


# --------------------------------------------------------------------------
# example2_bisect


def check_example2(outputs, roots, tol) -> list[str]:
    """outputs: (op index, {criterion: threshold})."""
    fails = []
    for i, th in outputs:
        for name, root in roots.items():
            if abs(th[name] - root) > tol:
                fails.append(f"threshold_{name}: op {i} threshold {th[name]!r} is "
                             f"more than {tol} from the root {root!r}")
        if not th["corollary1"] < th["nonlinear_witness"]:
            fails.append(f"threshold_order: op {i} corollary1 {th['corollary1']!r} "
                         f"not below the witness {th['nonlinear_witness']!r}")
    return fails


# --------------------------------------------------------------------------
# cli_batch


def cli_inputs(seed: int, n_sets: int) -> list[dict]:
    """The explicit inputs of cli_batch: per set, random full-rank 3x3 and 4x4
    states with well separated Schmidt coefficients, a random 2x2 state and a
    squeezing parameter r.  Returns matrices and r; specs are made from them."""
    rng = np.random.default_rng([seed, 2009])
    sets = []
    for _ in range(n_sets):
        item = {}
        for key, d in (("rho3", 3), ("rho4", 4), ("rho2", 2)):
            while True:
                g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
                m = g @ g.conj().T
                m = m / np.trace(m).real
                m = 0.5 * (m + m.conj().T)
                if d == 2 or schmidt_gap(m, d, d) > 1e-3:
                    break
            item[key] = m
        item["r"] = float(rng.uniform(0.1, 1.5))
        sets.append(item)
    return sets


def matrix_spec(m: np.ndarray, d: int) -> dict:
    return {"dims": [d, d],
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


PAULI_SPEC = {
    "opsA": [[[[float(z.real), float(z.imag)] for z in row] for row in p] for p in PAULIS],
    "opsB": [[[[float(z.real), float(z.imag)] for z in row] for row in p] for p in PAULIS],
    "boundA": 2.0,
    "boundB": 2.0,
}

SCAN_P = [round(0.05 * k, 10) for k in range(21)]


def cli_reference(item: dict) -> dict:
    return {
        "tlur3": schmidt_identity(item["rho3"], 3, 3),
        "tlur4": schmidt_identity(item["rho4"], 4, 4),
        "lur2": pauli_lur_lhs(item["rho2"]),
        "cor2": 2.0 * math.exp(-2.0 * item["r"]),
    }


def check_cli(outputs, refs, c1_root) -> list[str]:
    """outputs: (op index, {call name: output text}) of ops whose calls all
    exited 0; refs[op index] is the cli_reference of the input set it used."""
    fails = []
    for i, calls in outputs:
        ref = refs[i]
        parsed = {}
        for name, text in calls.items():
            try:
                parsed[name] = _csv_rows(text) if name == "scan" else json.loads(text)
            except (ValueError, csv.Error):
                fails.append(f"parse: op {i} call {name} output does not parse")
        for name, (lhs, rhs) in (("tlur3", ref["tlur3"]), ("tlur4", ref["tlur4"])):
            rep = parsed.get(name)
            if rep is None:
                continue
            if abs(rep["lhs"] - lhs) > ID_TOL:
                fails.append(f"tlur_lhs: op {i} {name} lhs {rep['lhs']!r} != {lhs!r}")
            if abs(rep["rhs"] - rhs) > ID_TOL:
                fails.append(f"tlur_rhs: op {i} {name} rhs {rep['rhs']!r} != {rhs!r}")
        rep = parsed.get("lur2")
        if rep is not None and (abs(rep["lhs"] - ref["lur2"]) > ID_TOL or rep["rhs"] != 4.0):
            fails.append(f"lur_lhs: op {i} lhs {rep['lhs']!r} != {ref['lur2']!r} "
                         f"or rhs {rep['rhs']!r} != 4")
        rep = parsed.get("cor2")
        if rep is not None and abs(rep["lhs"] - ref["cor2"]) > ID_TOL:
            fails.append(f"corollary2_lhs: op {i} lhs {rep['lhs']!r} != {ref['cor2']!r}")
        rows = parsed.get("scan")
        if rows is not None:
            fails += _check_scan_rows(i, rows, c1_root)
    return fails


def _check_scan_rows(i, rows, c1_root) -> list[str]:
    header = ["family", "p", "criterion", "lhs", "rhs", "margin", "detected"]
    if not rows or rows[0] != header or len(rows) != 1 + 2 * len(SCAN_P):
        return [f"scan_rows: op {i} has {len(rows)} rows or a wrong header"]
    fails = []
    for k, row in enumerate(rows[1:]):
        p_want = SCAN_P[k // 2]
        name = ("corollary1", "ppt")[k % 2]
        try:
            p = float(row[1])
            detected = {"true": True, "false": False}[row[6]]
        except (ValueError, KeyError, IndexError):
            fails.append(f"scan_rows: op {i} row {row!r} does not parse")
            continue
        if row[0] != "noisy_singlet" or row[2] != name or abs(p - p_want) > 1e-12:
            fails.append(f"scan_rows: op {i} row {row!r} is not ({name}, p={p_want})")
            continue
        want = p > c1_root if name == "corollary1" else p > 0
        if detected != want:
            fails.append(f"scan_verdict: op {i} {name} at p={p} detected={detected}")
    return fails


if __name__ == "__main__":
    print(json.dumps(example2_roots()))
