"""Smoke tests: the scripts under scripts/ run end to end on coarse inputs."""

import csv
import pathlib
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, tmp_path, name, *args):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def _csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_fig1_regions_script_writes_both_csvs(tmp_path, monkeypatch, capsys):
    _run(monkeypatch, tmp_path, "fig1_regions.py", "--step-a", "0.45", "--step-p", "0.5")
    measures = _csv(tmp_path / "fig1_data" / "measures.csv")
    assert measures[0] == ["a", "c_lur", "c_tlur"]
    assert [row[0] for row in measures[1:]] == ["0.05", "0.5", "0.95"]
    regions = _csv(tmp_path / "fig1_data" / "regions.csv")
    assert regions[0] == ["family", "a", "p", "criterion", "lhs", "rhs", "margin", "detected"]
    assert len(regions) == 1 + 3 * 3 * 2  # a in {0.05, 0.5, 0.95}, p in {0, 0.5, 1}, lur/tlur
    out = capsys.readouterr().out
    assert "lowest detected p per a" in out and "0.95" in out


def test_example2_thresholds_script_prints_the_three_thresholds(tmp_path, monkeypatch, capsys):
    _run(monkeypatch, tmp_path, "example2_thresholds.py", "--tol", "1e-2")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["criterion", "threshold", "p"]
    got = {name: float(value) for name, value in (line.split() for line in lines[1:])}
    assert abs(got["nonlinear_witness"] - 0.25) <= 1e-2
    assert abs(got["corollary1"] - 0.221) <= 1e-2
    assert abs(got["ppt"]) <= 1e-2
