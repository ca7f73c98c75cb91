"""Smoke tests: the scripts under scripts/ run end to end on coarse inputs,
and the README's examples run as written."""

import csv
import pathlib
import re
import runpy
import shlex
import sys

import numpy as np

from tlurkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(monkeypatch, tmp_path, name, *args):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def _csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


P_STAR = ["lur", "tlur", "ccnr"]
# p* of horodecki_noise with Schmidt observables; a scan at step 1e-6 agrees to 1e-6
P_STAR_ROWS = {"0.05": [0.997283, 0.996974, 0.997490],
               "0.50": [0.996179, 0.996151, 0.996531],
               "0.95": [0.999622, 0.999622, 0.999651]}


def test_fig1_regions_script_writes_both_csvs(tmp_path, monkeypatch, capsys):
    _run(monkeypatch, tmp_path, "fig1_regions.py", "--step-a", "0.45", "--step-p", "0.5")
    measures = _csv(tmp_path / "fig1_data" / "measures.csv")
    assert measures[0] == ["a", "c_lur", "c_tlur"]
    assert [row[0] for row in measures[1:]] == ["0.05", "0.5", "0.95"]
    regions = _csv(tmp_path / "fig1_data" / "regions.csv")
    assert regions[0] == ["family", "a", "p", "criterion", "lhs", "rhs", "margin", "detected"]
    assert len(regions) == 1 + 3 * 3 * 2  # a in {0.05, 0.5, 0.95}, p in {0, 0.5, 1}, lur/tlur
    # p* per row, bisected to 1e-6; the tightened test detects at least as much
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("threshold p* per a") and lines[2].split() == ["a", *P_STAR]
    got = {row[0]: [float(x) for x in row[1:]] for row in map(str.split, lines[3:])}
    assert list(got) == list(P_STAR_ROWS)
    for a, want in P_STAR_ROWS.items():
        assert np.allclose(got[a], want, rtol=0, atol=2e-6), (a, got[a])
        lur, tlur, _ = got[a]
        assert tlur <= lur


def test_example2_thresholds_script_prints_the_three_thresholds(tmp_path, monkeypatch, capsys):
    _run(monkeypatch, tmp_path, "example2_thresholds.py", "--tol", "1e-2")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["criterion", "threshold", "p"]
    got = {name: float(value) for name, value in (line.split() for line in lines[1:])}
    assert abs(got["nonlinear_witness"] - 0.25) <= 1e-2
    assert abs(got["corollary1"] - 0.221) <= 1e-2
    assert abs(got["ppt"]) <= 1e-2


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```(\w*)\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    (tour,) = [code for lang, code in blocks if lang == "python"]
    exec(tour, {})
    lines = [line for lang, code in blocks for line in code.replace("\\\n", " ").splitlines()
             if line.startswith("tlurkit ")]
    assert len(lines) == 7
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "regions.json").exists()
