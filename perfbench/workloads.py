"""The three workloads: inputs made from a seed, one operation, and its checks.

A workload exposes ``round_size`` operations; a run repeats whole rounds.
``op(i)`` is the timed call into tlurkit and returns its raw result,
``collect(i, raw)`` turns that into the output to check, and
``check(outputs)`` returns failure messages (see ``checks``) for a list of
(op index, output).  The run checks each output as soon as it is collected,
outside the op's timer, and then drops it, so the memory a run holds does not
grow with the number of operations; ``check`` keeps only the few facts
``summary()`` reports for the run's info line.  ``records_per_op`` is the
number of result records one operation yields; ``describe()`` gives the
inputs.
"""

from __future__ import annotations

import json
import os
import random

import checks

FIG1_A = [round(0.05 * k, 10) for k in range(1, 20)]
FIG1_P = [round(0.01 * k, 10) for k in range(101)]


class Fig1Sweep:
    """One operation sweeps one ``a`` row of the Fig. 1 grid (101 cells of
    horodecki_noise with lur,tlur and Schmidt observables) and writes its CSV.
    A round is all 19 rows, in an order drawn from the seed."""

    name = "fig1_sweep"
    records_per_op = len(FIG1_P)

    def __init__(self, tk, seed: int, workdir: str, rows=None):
        self.tk = tk
        self.rows = list(FIG1_A if rows is None else rows)
        random.Random(seed).shuffle(self.rows)
        p_axis = tk.scan.GridAxis("p", 0.0, 1.0, 0.01)
        self.grids = [[tk.scan.GridAxis("a", a, a, 0.05), p_axis] for a in self.rows]
        self.round_size = len(self.rows)
        self.detected = {}  # op index -> cells each test detected in its row

    def op(self, i):
        result = self.tk.scan.sweep("horodecki_noise", self.grids[i], ["lur", "tlur"],
                                    obs_spec="schmidt_loo_pair")
        return result.cells, result.to_csv()

    def collect(self, i, raw):
        return raw

    def expected_points(self):
        return [[(a, p) for p in FIG1_P] for a in self.rows]

    def check(self, outputs) -> list[str]:
        points = self.expected_points()
        refs = {pt: checks.fig1_reference(*pt) for i, _ in outputs for pt in points[i]}
        for i, (cells, _) in outputs:
            self.detected[i] = {name: sum(c["reports"][name]["detected"] for c in cells)
                                for name in ("lur", "tlur")}
        return checks.check_fig1(outputs, points, refs)

    def describe(self) -> dict:
        return {"family": "horodecki_noise", "criteria": ["lur", "tlur"],
                "obs": "schmidt_loo_pair", "p_axis": [0.0, 1.0, 0.01], "a_rows": self.rows}

    def summary(self) -> dict:
        return {"cells_detected": {name: sum(d[name] for d in self.detected.values())
                                   for name in ("lur", "tlur")},
                "workers": self.tk.scan.resolve_workers()}


class Example2Bisect:
    """One operation runs the three Example 2 bisections on noisy_singlet,
    p in [0, 1], tol 1e-4: nonlinear_witness, corollary1, ppt, in order."""

    name = "example2_bisect"
    criteria = ("nonlinear_witness", "corollary1", "ppt")
    tol = 1e-4
    round_size = 1
    records_per_op = len(criteria)

    def __init__(self, tk, seed: int, workdir: str):
        self.tk = tk
        self.roots = None  # computed at the first check, outside set-up
        self.first = None

    def op(self, i):
        return {c: self.tk.scan.bisect_threshold("noisy_singlet", "p", 0.0, 1.0, c,
                                                 tol=self.tol)
                for c in self.criteria}

    def collect(self, i, raw):
        return raw

    def check(self, outputs) -> list[str]:
        if self.roots is None:
            self.roots = checks.example2_roots_apart()
        if self.first is None and outputs:
            self.first = outputs[0][1]
        return checks.check_example2(outputs, self.roots, self.tol)

    def describe(self) -> dict:
        return {"family": "noisy_singlet", "param": "p", "lo": 0.0, "hi": 1.0,
                "tol": self.tol, "criteria": list(self.criteria)}

    def summary(self) -> dict:
        return {"thresholds": self.first}


class CliBatch:
    """One operation is five in-process ``cli.main`` calls writing with --out:
    evaluate tlur on a random 3x3 and 4x4 state (default Schmidt observables),
    evaluate lur on a random 2x2 state with a declared Pauli set (bounds 2/2),
    cv-evaluate corollary2 --a 1 on a two-mode squeezed vacuum, and a CSV scan
    of noisy_singlet over p = 0:1:0.05 with corollary1,ppt.  A round cycles
    through ``n_sets`` input sets drawn from the seed."""

    name = "cli_batch"
    n_sets = 4
    records_per_op = 4 + len(checks.SCAN_P)  # four reports, one scan row pair per p

    def __init__(self, tk, seed: int, workdir: str):
        self.tk = tk
        self.sets = checks.cli_inputs(seed, self.n_sets)
        self.round_size = self.n_sets
        self.refs = {}  # set index -> cli_reference, computed at its first check
        self.c1_root = None
        obs = json.dumps(checks.PAULI_SPEC)
        self.calls = []
        for k, item in enumerate(self.sets):
            out = {name: os.path.join(workdir, f"{k}-{name}.out")
                   for name in ("tlur3", "tlur4", "lur2", "cor2", "scan")}
            self.calls.append([
                ("tlur3", ["--out", out["tlur3"], "evaluate", "--criterion", "tlur",
                           "--state", json.dumps(checks.matrix_spec(item["rho3"], 3))]),
                ("tlur4", ["--out", out["tlur4"], "evaluate", "--criterion", "tlur",
                           "--state", json.dumps(checks.matrix_spec(item["rho4"], 4))]),
                ("lur2", ["--out", out["lur2"], "evaluate", "--criterion", "lur",
                          "--state", json.dumps(checks.matrix_spec(item["rho2"], 2)),
                          "--obs", obs]),
                ("cor2", ["--out", out["cor2"], "cv-evaluate", "--criterion", "corollary2",
                          "--a", "1", "--state", json.dumps({"tmsv": item["r"]})]),
                ("scan", ["--format", "csv", "--out", out["scan"], "scan",
                          "--family", "noisy_singlet", "--param", "p", "--min", "0",
                          "--max", "1", "--step", "0.05", "--criteria", "corollary1,ppt"]),
            ])
        self.paths = [{name: argv[argv.index("--out") + 1] for name, argv in calls}
                      for calls in self.calls]

    def op(self, i):
        for name, argv in self.calls[i]:
            code = self.tk.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{name} exited with {code}")

    def collect(self, i, raw):
        texts = {}
        for name, path in self.paths[i].items():
            with open(path, encoding="utf-8") as fh:
                texts[name] = fh.read()
            os.remove(path)
        return texts

    def check(self, outputs) -> list[str]:
        for i, _ in outputs:
            if i not in self.refs:
                self.refs[i] = checks.cli_reference(self.sets[i])
        if self.c1_root is None:
            self.c1_root = checks.example2_roots_apart()["corollary1"]
        return checks.check_cli(outputs, self.refs, self.c1_root)

    def describe(self) -> dict:
        return {"argv": [[argv for _, argv in calls] for calls in self.calls]}

    def summary(self) -> dict:
        return {"input_sets": self.n_sets, "r": [item["r"] for item in self.sets]}


WORKLOADS = {w.name: w for w in (Fig1Sweep, Example2Bisect, CliBatch)}
