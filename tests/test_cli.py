import csv
import io
import json
import subprocess
import sys
import warnings

import numpy as np

from tlurkit import cli
from tlurkit.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evaluate_singlet_tlur(capsys):
    code, out, err = run(
        capsys, "evaluate",
        "--state", '{"family":"noisy_singlet","params":{"p":1}}',
        "--criterion", "tlur", "--obs", "pauli_loo_pair")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["detected"] is True
    assert abs(rep["lhs"]) < 1e-12
    assert abs(rep["rhs"] - 2.0) < 1e-12


def test_evaluate_defaults_obs_by_dims(capsys):
    code, out, _ = run(
        capsys, "evaluate", "--state", '{"family":"horodecki","params":{"a":0.5}}',
        "--criterion", "tlur")
    assert code == 0
    assert json.loads(out)["detected"] is True  # schmidt default detects at p=1


def test_evaluate_ppt_needs_no_obs(capsys):
    code, out, _ = run(
        capsys, "evaluate", "--state", '{"family":"horodecki","params":{"a":0.5}}',
        "--criterion", "ppt")
    assert code == 0
    assert json.loads(out)["detected"] is False


def test_evaluate_csv_format(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "evaluate",
        "--state", '{"family":"noisy_singlet","params":{"p":1}}',
        "--criterion", "lur", "--obs", "pauli_loo_pair")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "criterion,lhs,rhs,margin,detected"
    assert lines[1].startswith("lur,") and lines[1].endswith(",true")


def test_bisect_cli(capsys):
    code, out, _ = run(
        capsys, "bisect", "--family", "noisy_singlet", "--param", "p",
        "--criterion", "corollary1", "--lo", "0", "--hi", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["threshold"] - 0.221) < 5e-3


def test_bisect_cli_stops_at_the_float_spacing():
    # a tol below the float spacing ends once no float lies inside the bracket;
    # a subprocess, so that a bisection that never ends fails on the timeout
    done = subprocess.run(
        [sys.executable, "-m", "tlurkit.cli", "bisect", "--family", "noisy_singlet",
         "--param", "p", "--criterion", "corollary1", "--lo", "0", "--hi", "1",
         "--tol", "1e-300"], capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    assert abs(json.loads(done.stdout)["threshold"] - 0.221) < 1e-3


def test_evaluate_loo_pair_naming_dim_a_on_a_3x2_state(capsys):
    code, out, err = run(
        capsys, "evaluate",
        "--state", '{"family":"random_separable","params":{"dim_a":3,"dim_b":2}}',
        "--criterion", "lur", "--obs", '{"builder":"loo_pair","params":{"dim_a":3}}')
    assert code == 0 and err == ""
    assert json.loads(out)["components"]["U_B"] == 1.0  # d_B - 1 of the state's B side


def test_cv_evaluate_tmsv(capsys):
    code, out, _ = run(
        capsys, "cv-evaluate", "--state", '{"tmsv":1.0}', "--a", "1",
        "--criterion", "corollary2")
    assert code == 0
    rep = json.loads(out)
    assert rep["detected"] is True
    assert abs(rep["lhs"] - 2.0 * np.exp(-2.0)) < 1e-9


def test_cv_evaluate_thermal_duan(capsys):
    code, out, _ = run(
        capsys, "cv-evaluate", "--state", '{"thermal":[1.0,0.0]}',
        "--criterion", "duan")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["margin"] + 2.0) < 1e-9


def test_list_states_and_criteria(capsys):
    code, out, _ = run(capsys, "list-states")
    assert code == 0
    families = {row["family"] for row in json.loads(out)}
    assert {"horodecki", "horodecki_noise", "noisy_singlet"} <= families

    code, out, _ = run(capsys, "list-criteria")
    assert code == 0
    payload = json.loads(out)
    names = {row["criterion"] for row in payload["criteria"]}
    assert {"lur", "tlur", "tlur_dual", "lemma1", "corollary1",
            "nonlinear_witness", "ppt", "ccnr", "duan", "corollary2"} <= names
    assert "schmidt_loo_pair" in payload["observable_builders"]

    for command in ("list-states", "list-criteria"):
        code, out, _ = run(capsys, "--format", "csv", command)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1
        assert all(len(row) == len(rows[0]) for row in rows)


def test_scan_cli_csv(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "scan", "--family", "noisy_singlet",
        "--param", "p", "--min", "0", "--max", "1", "--step", "0.5",
        "--criteria", "ppt,corollary1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,p,criterion,lhs,rhs,margin,detected"
    assert len(lines) == 1 + 3 * 2


def test_sweep_cli_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, err = run(
        capsys, "--out", str(target), "sweep", "--family", "horodecki_noise",
        "--axis", "a:0.3:0.7:0.4", "--axis", "p:0.9:1.0:0.1",
        "--criteria", "lur,tlur", "--obs", "schmidt_loo_pair")
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert len(data["cells"]) == 4
    assert data["obs"] == "schmidt_loo_pair"


def test_sweep_cli_deterministic_across_runs(tmp_path, capsys):
    blobs = []
    for k in range(2):
        target = tmp_path / f"out-{k}.csv"
        code, _, _ = run(
            capsys, "--format", "csv", "--out", str(target),
            "sweep", "--family", "noisy_singlet", "--axis", "p:0:1:0.1",
            "--criteria", "corollary1,ppt,lemma1")
        assert code == 0
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]


def test_invalid_inputs_exit_2(capsys, tmp_path):
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b'{"tmsv": 1\xff}')
    cases = [
        ("evaluate", "--criterion", "tlur"),  # missing state
        ("evaluate", "--state", "{not json", "--criterion", "tlur"),
        ("evaluate", "--state", '{"family":"nope"}', "--criterion", "tlur"),
        ("evaluate", "--state", '{"family":"horodecki","params":{"a":2}}',
         "--criterion", "ppt"),
        ("bisect", "--family", "horodecki", "--param", "a", "--lo", "0.1",
         "--hi", "0.9", "--criterion", "ppt"),  # no crossing
        ("sweep", "--family", "noisy_singlet", "--criteria", "ppt"),  # no axis
        ("scan", "--family", "noisy_singlet", "--param", "p", "--min", "0",
         "--max", "1", "--step", "0.1", "--criteria", "bogus"),
        ("cv-evaluate", "--state", '{"cov": [[1,0,0,0]]}', "--criterion", "duan"),
        ("--threads", "2", "sweep", "--family", "noisy_singlet",
         "--axis", "p:0:1:0.5", "--criteria", "ppt"),  # no such flag
        ("--seed", "3", "evaluate", "--criterion", "ppt", "--state",
         '{"family":"noisy_singlet","params":{"p":0.5}}'),  # no such flag
        ("evaluate", "--state", '{"family":"random_separable","params":{"dim_a":40}}',
         "--criterion", "ppt"),  # outside the declared range (2, 16)
        ("evaluate", "--state", '{"family":"random_separable","params":{"dim_a":2.5}}',
         "--criterion", "ppt"),  # not an integer
        ("evaluate", "--obs", '{"builder":"su_pair","params":{"dim_a":2.5,"dim_b":3.9}}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"),  # observable dimension not an integer
        ("evaluate", "--obs", '{"builder":"su_pair","params":{"dim_a":17}}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"),  # observable dimension outside [2, 16]
        ("scan", "--family", "noisy_singlet", "--param", "p", "--min", "0",
         "--max", "1", "--step", "nan", "--criteria", "ppt"),
        ("scan", "--family", "noisy_singlet", "--param", "p", "--min", "0",
         "--max", "inf", "--step", "0.1", "--criteria", "ppt"),
        ("bisect", "--family", "noisy_singlet", "--param", "p", "--lo", "0",
         "--hi", "1", "--criterion", "ppt", "--tol", "nan"),
        ("bisect", "--family", "noisy_singlet", "--param", "p", "--lo", "0",
         "--hi", "inf", "--criterion", "ppt"),  # no warning ahead of the diagnostic
        ("bisect", "--family", "noisy_singlet", "--param", "p", "--lo=-inf",
         "--hi", "1", "--criterion", "ppt"),
        ("cv-evaluate", "--state", '{"tmsv": 1}', "--criterion", "duan", "--a", "nan"),
        ("cv-evaluate", "--state", '{"tmsv": 1}', "--criterion", "duan",
         "--a", "1e-200"),  # a*a underflows to 0
        ("cv-evaluate", "--state", '{"tmsv": 1}', "--criterion", "duan",
         "--a", "1e200"),  # a*a overflows
        ("cv-evaluate", "--state",
         '{"cov": [[1e300,0,0,0],[0,1e300,0,0],[0,0,1e300,0],[0,0,0,1e300]]}',
         "--criterion", "corollary2", "--a", "1e10"),  # lhs overflows
        ("cv-evaluate", "--state", '{"tmsv": 400}', "--criterion", "duan"),
        ("cv-evaluate", "--state", OVERFLOWING_COV, "--criterion", "duan"),  # mode sum
        ("scan", "--family", "noisy_singlet", "--param", "p", "--min", "0",
         "--max", "1", "--step", "1e-12", "--criteria", "ppt"),  # refused before it is built
    ]
    fields = {  # a malformed field of a spec is named in the detail
        ("evaluate", "--obs", '{"builder":"loo_pair","params":"x"}', "--state",
         '{"family":"noisy_singlet","params":{"p":0.5}}', "--criterion", "lur"): "params",
        ("evaluate", "--obs", '{"builder":"loo_pair","params":5}', "--state",
         '{"family":"noisy_singlet","params":{"p":0.5}}', "--criterion", "lur"): "params",
        ("evaluate", "--obs", '{"builder":"loo_pair","params":[["pairing","direct"]]}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"): "params",
        ("evaluate", "--state", '{"family":["x"]}', "--criterion", "ppt"): "family",
        ("evaluate", "--state", '{"family":{"a":1}}', "--criterion", "ppt"): "family",
        ("cv-evaluate", "--state", '{"tmsv":1,"mean":"x"}', "--criterion", "duan"): "mean",
        ("cv-evaluate", "--state", '{"tmsv":1,"mean":{"a":1}}', "--criterion", "duan"): "mean",
        ("cv-evaluate", "--state", '{"tmsv":1,"mean":[1,2,"a",4]}',
         "--criterion", "duan"): "mean",
        # su_pair always takes the exact bounds 2(d-1): no bound mode, seed or restarts
        ("evaluate", "--obs", '{"builder":"su_pair","params":{"bound_mode":"numeric"}}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"): "params",
        ("evaluate", "--obs", '{"builder":"su_pair","params":{"seed":3}}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"): "params",
        ("evaluate", "--obs", '{"builder":"su_pair","params":{"restarts":4}}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"): "params",
        # one number rule for every spec value: no bool, no string
        ("cv-evaluate", "--criterion", "duan", "--state",
         '{"tmsv":"1","mean":["1","2","3","4"]}'): "tmsv",
        ("cv-evaluate", "--criterion", "duan", "--state", '{"tmsv":true}'): "tmsv",
        ("cv-evaluate", "--criterion", "duan", "--state", '{"thermal":[1,true]}'): "thermal",
        ("cv-evaluate", "--criterion", "duan", "--state", '{"thermal":null}'): "thermal",
        ("cv-evaluate", "--criterion", "duan", "--state",
         '{"tmsv":1,"mean":["1",2,3,4]}'): "mean",
        ("cv-evaluate", "--criterion", "duan", "--state",
         '{"cov":[[0.5,0,0,0],[0,"0.5",0,0],[0,0,0.5,0],[0,0,0,0.5]]}'): "cov",
        ("cv-evaluate", "--criterion", "duan", "--state",
         '{"cov":[[0.5,0,0,0],[0,0.5,0,0],[0,0,true,0],[0,0,0,0.5]]}'): "cov",
        ("cv-evaluate", "--criterion", "duan", "--state", '{"cov":[[0.5,0],[0,0.5]]}'): "cov",
        ("evaluate", "--criterion", "lur", "--state",
         '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--obs", PAULI_OBS.replace('"boundA":2', '"boundA":true')): "boundA",
        ("evaluate", "--criterion", "lur", "--state",
         '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--obs", PAULI_OBS.replace('"boundB":2', '"boundB":"2"')): "boundB",
        ("evaluate", "--criterion", "lur", "--state",
         '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--obs", PAULI_OBS.replace("[[1,0],[0,-1]]", '[[1,0],[0,"-1"]]', 1)): "opsA[2][1][1]",
        ("evaluate", "--criterion", "ppt", "--state",
         '{"dims":[true,2],"matrix":[[0.5,0],[0,0.5]]}'): "dims",
        ("evaluate", "--criterion", "ppt", "--state",
         '{"dims":[1,2],"matrix":[[0.5,true],[0,0.5]]}'): "matrix[0][1]",
        ("evaluate", "--criterion", "ppt", "--state",
         '{"dims":[1,2],"matrix":[[["0.5","0"],0],[0,0.5]]}'): "matrix[0][0]",
        # a spec file that is not UTF-8 names its flag
        ("cv-evaluate", "--criterion", "duan", "--state-file", str(not_utf8)): "--state-file",
        ("evaluate", "--criterion", "lur", "--state",
         '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--obs-file", str(not_utf8)): "--obs-file",
    }
    named = {  # a family parameter that is not a number names the parameter
        ("evaluate", "--state", '{"family":"noisy_singlet","params":{"p":true}}',
         "--criterion", "ppt"): "p",
        ("evaluate", "--state", '{"family":"random_separable","params":{"n_terms":true}}',
         "--criterion", "ppt"): "n_terms",
        ("evaluate", "--state", '{"family":"noisy_singlet","params":{"p":"0.5"}}',
         "--criterion", "ppt"): "p",
    }
    for argv in cases + list(fields) + list(named):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        diag = json.loads(err)
        assert diag["error"] == "invalid-input"
        assert diag["detail"]
        if "dim_a" in argv[2]:
            assert "dim_a" in diag["detail"], argv  # names the parameter
        if argv in fields:
            assert diag["detail"].startswith(f"{fields[argv]}: "), argv
            assert "object is not" not in diag["detail"], argv  # no Python type error
        if argv[0] in ("--threads", "--seed"):
            assert diag["detail"] == f"unrecognized global flag {argv[0]}", argv
        if argv in named:
            assert diag["detail"].startswith(f"{named[argv]} must be a number"), argv


PAULIS = "[[0,1],[1,0]]", "[[0,[0,-1]],[[0,1],0]]", "[[1,0],[0,-1]]"  # X, Y, Z
PAULI_OBS = (f'{{"opsA":[{",".join(PAULIS)}],"opsB":[{",".join(PAULIS)}],'
             '"boundA":2,"boundB":2}')
OVERFLOWING_COV = '{"cov": [[1e308,0,0,0],[0,1e308,0,0],[0,0,1e308,0],[0,0,0,1e308]]}'


def _one_diagnostic_line_and_no_warning(capsys, *argv) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert [str(w.message) for w in caught] == []
    lines = captured.err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "invalid-input"
    return diag


def test_overflowing_tmsv_gives_one_diagnostic_line_and_no_warning(capsys):
    diag = _one_diagnostic_line_and_no_warning(
        capsys, "cv-evaluate", "--state", '{"tmsv": 400}', "--criterion", "duan")
    assert "r must satisfy" in diag["detail"]


def test_overflowing_mode_sum_gives_one_diagnostic_line_and_no_warning(capsys):
    diag = _one_diagnostic_line_and_no_warning(
        capsys, "cv-evaluate", "--state", OVERFLOWING_COV, "--criterion", "duan")
    assert diag["type"] == "UnphysicalStateError" and "mode sums" in diag["detail"]


def test_evaluate_prints_the_cell_of_a_one_point_sweep(capsys):
    points = [("noisy_singlet", {"p": 0.3}, "corollary1", []),
              ("horodecki_noise", {"a": 0.4, "p": 0.9}, "tlur", []),
              ("random_separable", {"dim_a": 3, "dim_b": 2, "seed": 5}, "lur",
               ["--obs", "loo_pair"]),
              ("random_separable", {"dim_a": 2, "dim_b": 3, "seed": 5}, "ppt", [])]
    for family, params, criterion, obs in points:
        code, out, _ = run(capsys, "evaluate", "--criterion", criterion, *obs, "--state",
                           json.dumps({"family": family, "params": params}))
        assert code == 0
        report = json.loads(out)
        axes = [f"{k}:{v}:{v}:1" for k, v in params.items()]
        code, out, _ = run(capsys, "sweep", "--family", family, "--criteria", criterion,
                           *obs, *(arg for axis in axes for arg in ("--axis", axis)))
        assert code == 0
        (cell,) = json.loads(out)["cells"]
        assert {k: report[k] for k in ("lhs", "rhs", "margin", "detected")} \
            == cell["reports"][criterion], (family, params, criterion)


def test_usage_error_is_machine_parsable(capsys):
    code, _, err = run(capsys, "evaluate", "--criterion", "not-a-criterion",
                       "--state", '{"family":"noisy_singlet","params":{"p":1}}')
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"



def test_a_json_integer_past_the_digit_limit_exits_2(capsys):
    # json.loads raises a plain ValueError past 4300 digits, not a JSONDecodeError
    long_int = "1" * 5000
    for flag, argv in (
            ("--state", ("cv-evaluate", "--criterion", "duan",
                         "--state", f'{{"tmsv": {long_int}}}')),
            ("--obs", ("evaluate", "--criterion", "lur", "--state",
                       '{"family":"noisy_singlet","params":{"p":0.5}}',
                       "--obs", f'{{"builder":"loo_pair","params":{{"dim_a":{long_int}}}}}'))):
        code, out, err = run(capsys, *argv)
        diag = json.loads(err)
        assert code == 2 and out == ""
        assert diag["error"] == "invalid-input" and diag["type"] == "SpecParseError"
        assert diag["detail"].startswith(f"{flag}: "), diag


def test_a_gaussian_spec_with_a_builder_and_cov_is_ambiguous(capsys):
    cov = [[9, 0, 0, 0], [0, 9, 0, 0], [0, 0, 9, 0], [0, 0, 0, 9]]
    code, out, err = run(capsys, "cv-evaluate", "--criterion", "duan",
                         "--state", json.dumps({"tmsv": 1, "cov": cov}))
    assert code == 2 and out == ""
    assert json.loads(err)["detail"] == "state: ambiguous builders ['tmsv', 'cov']"


def test_one_parser_serves_every_call(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        for argv in (["list-states"], ["--format", "csv", "list-criteria"], ["bogus"],
                     ["list-states"]):
            run(capsys, *argv)
    finally:
        cli._parser.cache_clear()
    assert built == [1]


SCAN = ("scan", "--param", "p", "--min", "0.9", "--max", "1", "--step", "0.05",
        "--criteria", "ppt")


def test_a_fix_is_not_carried_to_the_next_call(capsys):
    code, out, _ = run(capsys, *SCAN, "--family", "horodecki_noise", "--fix", "a=0.5")
    assert code == 0 and json.loads(out)["fixed_params"] == {"a": 0.5}
    code, out, _ = run(capsys, *SCAN, "--family", "noisy_singlet")
    assert code == 0 and json.loads(out)["fixed_params"] == {}
    code, _, err = run(capsys, *SCAN, "--family", "horodecki_noise")
    assert code == 2 and "missing parameter(s) ['a']" in json.loads(err)["detail"]
    code, out, _ = run(capsys, "sweep", "--family", "noisy_singlet",
                       "--axis", "p:0:1:0.5", "--criteria", "ppt")
    assert code == 0 and [ax["name"] for ax in json.loads(out)["axes"]] == ["p"]


def test_a_call_after_a_failed_parse_prints_what_a_fresh_process_prints(capsys):
    argv = ["--format", "csv", *SCAN, "--family", "horodecki_noise", "--fix", "a=0.25"]
    fresh = subprocess.run([sys.executable, "-m", "tlurkit.cli", *argv],
                           capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    for bad in (["scan", "--family", "horodecki_noise", "--fix", "a=0.5"],  # no --param
                ["--format", "xml", "list-states"], ["--seed", "3", "list-states"]):
        code, _, _ = run(capsys, *bad)
        assert code == 2
        assert run(capsys, *argv) == (0, fresh.stdout, "")


def test_a_swept_or_bisected_parameter_cannot_be_fixed(capsys):
    fixes = ("--fix", "p=0.3", "--fix", "a=0.5")
    for argv in (("sweep", "--family", "horodecki_noise", "--axis", "p:0:1:0.5",
                  "--criteria", "ppt,ccnr", *fixes),
                 ("scan", "--family", "horodecki_noise", "--param", "p", "--min", "0",
                  "--max", "1", "--step", "0.5", "--criteria", "ppt", *fixes),
                 ("bisect", "--family", "horodecki_noise", "--param", "p", "--lo", "0",
                  "--hi", "1", "--criterion", "ccnr", *fixes)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        diagnostic = json.loads(err)
        assert diagnostic["type"] == "ParameterRangeError"
        assert "parameter 'p'" in diagnostic["detail"]


def test_list_states_names_the_ranges_open_at_both_ends(capsys):
    code, out, _ = run(capsys, "list-states")
    assert code == 0
    assert {row["family"]: row["open"] for row in json.loads(out)} == {
        "horodecki": ["a"], "horodecki_noise": ["a"], "noisy_singlet": [],
        "random_separable": []}
