import csv
import io
import json

import numpy as np

from tlurkit.cli import main


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
            capsys, "--seed", "7", "--format", "csv", "--out", str(target),
            "sweep", "--family", "noisy_singlet", "--axis", "p:0:1:0.1",
            "--criteria", "corollary1,ppt,lemma1")
        assert code == 0
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]


def test_invalid_inputs_exit_2(capsys):
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
        ("evaluate", "--state", '{"family":"random_separable","params":{"dim_a":40}}',
         "--criterion", "ppt"),  # outside the declared range (2, 16)
        ("evaluate", "--state", '{"family":"random_separable","params":{"dim_a":2.5}}',
         "--criterion", "ppt"),  # not an integer
        ("evaluate", "--obs", '{"builder":"su_pair","params":{"dim_a":2.5,"dim_b":3.9}}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"),  # observable dimension not an integer
        ("evaluate", "--obs",
         '{"builder":"su_pair","params":{"bound_mode":"numeric","restarts":0}}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"),  # no minimizer start
        ("evaluate", "--obs", '{"builder":"su_pair","params":{"dim_a":17}}',
         "--state", '{"family":"noisy_singlet","params":{"p":0.5}}',
         "--criterion", "lur"),  # observable dimension outside [2, 16]
        ("scan", "--family", "noisy_singlet", "--param", "p", "--min", "0",
         "--max", "1", "--step", "nan", "--criteria", "ppt"),
        ("scan", "--family", "noisy_singlet", "--param", "p", "--min", "0",
         "--max", "inf", "--step", "0.1", "--criteria", "ppt"),
        ("bisect", "--family", "noisy_singlet", "--param", "p", "--lo", "0",
         "--hi", "1", "--criterion", "ppt", "--tol", "nan"),
        ("cv-evaluate", "--state", '{"tmsv": 1}', "--criterion", "duan", "--a", "nan"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        diag = json.loads(err)
        assert diag["error"] == "invalid-input"
        assert diag["detail"]
        if "dim_a" in argv[2]:
            assert "dim_a" in diag["detail"], argv  # names the parameter


def test_usage_error_is_machine_parsable(capsys):
    code, _, err = run(capsys, "evaluate", "--criterion", "not-a-criterion",
                       "--state", '{"family":"noisy_singlet","params":{"p":1}}')
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_seed_flag_threads_into_numeric_bounds(capsys):
    spec = '{"builder":"su_pair","params":{"bound_mode":"numeric","restarts":4}}'
    outs = []
    for seed in ("3", "3", "4"):
        code, out, _ = run(
            capsys, "--seed", seed, "evaluate",
            "--state", '{"family":"noisy_singlet","params":{"p":0.9}}',
            "--criterion", "tlur", "--obs", spec)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
