"""Tests of the benchmark itself: smoke runs, and one test per output check
showing that it rejects a perturbed output.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads
from conftest import BENCH, ROOT

import tlurkit
import tlurkit.cli  # noqa: F401


def _measure(wl, rounds=1):
    """The outputs of whole rounds, kept (a run itself checks and drops them)."""
    return [(i, wl.collect(i, wl.op(i))) for _ in range(rounds) for i in range(wl.round_size)]


# --------------------------------------------------------------------------
# smoke runs


@pytest.fixture(scope="module")
def fig1():
    wl = workloads.Fig1Sweep(tlurkit, 3, "", rows=[0.05, 0.95])
    return wl, _measure(wl)


@pytest.fixture(scope="module")
def example2():
    wl = workloads.Example2Bisect(tlurkit, 3, "")
    return wl, _measure(wl, rounds=2)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    wl = workloads.CliBatch(tlurkit, 3, str(tmp_path_factory.mktemp("cli")))
    return wl, _measure(wl)


def test_smoke_fig1_sweep(fig1):
    wl, outputs = fig1
    assert len(outputs) == 2 and all(len(out[0]) == wl.records_per_op for _, out in outputs)
    assert wl.check(outputs) == []
    # both checks that need a particular region really see it
    refs = [checks.fig1_reference(a, p) for row in wl.expected_points() for a, p in row]
    assert any(pur <= 1 / 8 for _, pur in refs)
    assert wl.summary()["cells_detected"] == {"lur": 2, "tlur": 2}


def test_smoke_example2_bisect(example2):
    wl, outputs = example2
    assert len(outputs) == 2 and wl.check(outputs) == []


def test_smoke_cli_batch(cli):
    wl, outputs = cli
    assert len(outputs) == wl.n_sets and wl.check(outputs) == []
    assert all(len(out["scan"].splitlines()) == 1 + 2 * (wl.records_per_op - 4)
               for _, out in outputs)


def test_example2_roots():
    roots = checks.example2_roots()
    assert checks.example2_roots_apart() == roots
    assert roots["nonlinear_witness"] == pytest.approx(0.25, abs=1e-12)
    assert roots["corollary1"] == pytest.approx(0.22094, abs=1e-5)


def test_inputs_follow_the_seed():
    a, b, c = (checks.cli_inputs(s, 2) for s in (5, 5, 6))
    assert all((x["rho4"] == y["rho4"]).all() and x["r"] == y["r"] for x, y in zip(a, b))
    assert a[0]["r"] != c[0]["r"]


def _bench_cmd(*args):
    return [sys.executable, "perfbench/run.py", *args]


def test_command_prints_every_metric():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            _bench_cmd("--workload", "example2_bisect", "--seed", "2", "--seconds", "0.3",
                       "--trace", str(trace)),
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]}


def test_command_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(_bench_cmd("--workload", "cli_batch", "--seconds", "1"),
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_failing_cli_call_counts_as_failed(tmp_path):
    wl = workloads.CliBatch(tlurkit, 3, str(tmp_path))
    wl.calls = [[(name, argv + ["--criterion", "nope"]) for name, argv in calls]
                for calls in wl.calls]
    result = run.measure(wl, float("inf"), max_rounds=1)
    assert result["failed"] == wl.n_sets and result["fails"] == []


def test_measure_checks_every_output():
    wl = workloads.Example2Bisect(tlurkit, 1, "")
    wl.tol = 1e-9  # no bisection at tol 1e-4 lands this close to its root
    result = run.measure(wl, float("inf"), max_rounds=2)
    assert result["failed"] == 0 and len(result["fails"]) >= 2


_RSS_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
import run, workloads, tlurkit, tlurkit.cli
wl = workloads.Fig1Sweep(tlurkit, 1, "", rows=[0.3, 0.6])
result = run.measure(wl, float("inf"), max_rounds=int(sys.argv[3]))
assert result["failed"] == 0 and result["fails"] == []
print(run.peak_rss_kb())
"""


def test_peak_rss_does_not_grow_with_rounds():
    # Were outputs kept, 12 more rows would hold about 1.2 MB more.
    rss = [int(subprocess.run([sys.executable, "-c", _RSS_SCRIPT, BENCH,
                               os.path.join(ROOT, "src"), str(rounds)],
                              capture_output=True, text=True, timeout=120,
                              check=True).stdout.split()[-1])
           for rounds in (2, 8)]
    assert rss[1] - rss[0] < 512, rss  # KiB


# --------------------------------------------------------------------------
# tracing


def test_trace_counts_repeat_and_uninstall_restores():
    registry = dict(tlurkit.scan.DV_CRITERIA)
    sweep = tlurkit.scan.sweep
    counts = []
    for _ in range(2):
        wl = workloads.Example2Bisect(tlurkit, 1, "")
        tracer = tracing.Tracer(tlurkit)
        tracer.install()
        try:
            result = run.measure(wl, float("inf"), tracer, max_rounds=2)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(len(result["times"]))
        counts.append({k: v for k, v in metrics.items() if k.endswith(("_op", "_bisection"))})
    assert counts[0] == counts[1]
    assert counts[0]["states.built_per_op"] == 96
    assert counts[0]["scan.probes_per_bisection"] == 32
    assert tlurkit.scan.DV_CRITERIA == registry and tlurkit.scan.sweep is sweep


def test_trace_reaches_registry_captured_evaluators(tmp_path):
    wl = workloads.Fig1Sweep(tlurkit, 1, "", rows=[0.5])
    tracer = tracing.Tracer(tlurkit)
    tracer.install()
    try:
        run.measure(wl, float("inf"), tracer, max_rounds=1)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["criteria.evals_per_op"] == 202
    assert metrics["observables.sets_built_per_op"] == 101
    assert metrics["criteria.eval_lur_ms"] > 0 and metrics["scan.sweep_self_ms"] > 0
    path = tmp_path / "trace.json"
    tracer.write(path, {})
    assert json.load(open(path))["spans"]


# --------------------------------------------------------------------------
# each check rejects a perturbed output


def _fig1_fails(fig1, edit):
    wl, outputs = fig1
    outputs = copy.deepcopy(outputs)
    edit(outputs)
    return wl.check(outputs)


def _cell(outputs, p):
    cells = outputs[0][1][0]
    return next(c for c in cells if abs(c["params"]["p"] - p) < 1e-12)


def _rejected_by(fails, name):
    assert any(f.startswith(name + ":") for f in fails), fails


def test_fig1_rejects_lur_rhs_shift(fig1):
    def edit(out):
        _cell(out, 0.5)["reports"]["lur"]["rhs"] += 1e-6
    _rejected_by(_fig1_fails(fig1, edit), "lur_rhs")


def test_fig1_rejects_flipped_tlur_verdict(fig1):
    def edit(out):
        rep = _cell(out, 1.0)["reports"]["tlur"]
        assert rep["detected"]
        rep["detected"], rep["margin"] = False, -rep["margin"]
    _rejected_by(_fig1_fails(fig1, edit), "tlur_dominates")


def test_fig1_rejects_lhs_above_ccnr_bound(fig1):
    def edit(out):
        _cell(out, 0.0)["reports"]["lur"]["lhs"] += 1e-6
    _rejected_by(_fig1_fails(fig1, edit), "ccnr_bound")


def test_fig1_rejects_detection_in_separable_ball(fig1):
    def edit(out):
        rep = _cell(out, 0.0)["reports"]["lur"]
        rep["detected"], rep["margin"] = True, 1e-3
    _rejected_by(_fig1_fails(fig1, edit), "separable_ball")


def test_fig1_rejects_verdict_margin_mismatch(fig1):
    def edit(out):
        _cell(out, 0.5)["reports"]["tlur"]["detected"] = True
    _rejected_by(_fig1_fails(fig1, edit), "verdict")


def test_fig1_rejects_wrong_grid(fig1):
    def edit(out):
        _cell(out, 0.3)["params"]["p"] += 1e-6
    _rejected_by(_fig1_fails(fig1, edit), "grid")

    def drop(out):
        out[0][1][0].pop()
    _rejected_by(_fig1_fails(fig1, drop), "grid")


def test_fig1_rejects_csv_that_differs(fig1):
    def edit(out):
        i, (cells, text) = out[0]
        out[0] = (i, (cells, text.replace(",true\n", ",false\n", 1)))
    _rejected_by(_fig1_fails(fig1, edit), "csv")


@pytest.mark.parametrize("name", ["nonlinear_witness", "corollary1", "ppt"])
def test_example2_rejects_moved_threshold(example2, name):
    wl, outputs = example2
    outputs = copy.deepcopy(outputs)
    outputs[1][1][name] += 2 * wl.tol
    _rejected_by(wl.check(outputs), "threshold_" + name)


def test_example2_rejects_threshold_order(example2):
    wl, outputs = example2
    th = outputs[0][1]
    swapped = dict(th, corollary1=th["nonlinear_witness"], nonlinear_witness=th["corollary1"])
    _rejected_by(wl.check([(0, swapped)]), "threshold_order")


def _cli_fails(cli, name, edit):
    wl, outputs = cli
    outputs = copy.deepcopy(outputs)
    texts = outputs[-1][1]
    if name == "scan":
        texts[name] = edit(texts[name])
    else:
        rep = json.loads(texts[name])
        edit(rep)
        texts[name] = json.dumps(rep)
    return wl.check(outputs)


@pytest.mark.parametrize("name", ["tlur3", "tlur4"])
def test_cli_rejects_tlur_lhs_shift(cli, name):
    _rejected_by(_cli_fails(cli, name, lambda r: r.update(lhs=r["lhs"] + 1e-6)), "tlur_lhs")


@pytest.mark.parametrize("name", ["tlur3", "tlur4"])
def test_cli_rejects_tlur_rhs_shift(cli, name):
    _rejected_by(_cli_fails(cli, name, lambda r: r.update(rhs=r["rhs"] + 1e-6)), "tlur_rhs")


def test_cli_rejects_lur_lhs_shift(cli):
    _rejected_by(_cli_fails(cli, "lur2", lambda r: r.update(lhs=r["lhs"] + 1e-6)), "lur_lhs")


def test_cli_rejects_corollary2_lhs_shift(cli):
    _rejected_by(_cli_fails(cli, "cor2", lambda r: r.update(lhs=r["lhs"] + 1e-6)),
                 "corollary2_lhs")


def test_cli_rejects_output_that_does_not_parse(cli):
    wl, outputs = cli
    outputs = copy.deepcopy(outputs)
    outputs[0][1]["tlur3"] = outputs[0][1]["tlur3"][:-5]
    _rejected_by(wl.check(outputs), "parse")


def test_cli_rejects_flipped_scan_verdict(cli):
    def flip(text):
        lines = text.splitlines(keepends=True)
        k = next(k for k, line in enumerate(lines) if line.startswith("noisy_singlet,0.2,corollary1"))
        lines[k] = lines[k].replace(",false\n", ",true\n")
        return "".join(lines)
    _rejected_by(_cli_fails(cli, "scan", flip), "scan_verdict")


def test_cli_rejects_missing_scan_rows(cli):
    _rejected_by(_cli_fails(cli, "scan", lambda t: "".join(t.splitlines(True)[:-2])),
                 "scan_rows")
