import contextlib
import csv
import io
import json
import math
from pathlib import Path
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import stratified_channels
from qldp import channels
from qldp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def density_file(tmp_path, name, rho):
    rho = np.asarray(rho, dtype=complex)
    data = np.stack([rho.real, rho.imag], axis=-1).tolist()
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_qfi_json(capsys):
    code, out = run_cli(capsys, "qfi", "--family", "radial", "--lambda", "0.6")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qldp/1"
    assert doc["config"]["lam"] == 0.6
    assert abs(doc["result"]["value"] - 1.5625) < 1e-12
    assert doc["result"]["branch"] == "interior"
    assert "regularization_used" not in doc["result"]


def test_certify_depolarizing_tight(capsys):
    code, out = run_cli(capsys, "certify", "--depolarizing", "--eps", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] is True
    assert abs(doc["result"]["margin"]) < 1e-9


def test_certify_channel_file_and_at_eps(capsys, tmp_path):
    path = tmp_path / "chan.json"
    channels.depolarizing(2, 1.0).save(str(path))
    code, out = run_cli(capsys, "certify", "--channel", str(path),
                        "--at-eps", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] is False
    assert doc["result"]["margin"] > 1e-3


def test_tighteps(capsys, tmp_path):
    path = tmp_path / "chan.json"
    channels.depolarizing(2, 1.0).save(str(path))
    code, out = run_cli(capsys, "tighteps", "--channel", str(path))
    assert code == 0
    assert abs(json.loads(out)["result"]["tight_eps"] - 1.0) < 1e-6


def test_certify_accepts_the_budget_tighteps_prints(capsys, tmp_path):
    path = tmp_path / "chan.json"
    for ch in stratified_channels(40, seed=601):
        ch.save(str(path))
        code, out = run_cli(capsys, "tighteps", "--channel", str(path))
        assert code == 0
        t = json.loads(out)["result"]["tight_eps"]
        code, out = run_cli(capsys, "certify", "--channel", str(path),
                            "--eps", repr(t))
        assert code == 0
        assert json.loads(out)["result"]["verdict"] is True, t


def test_tighteps_non_private_channel_is_out_of_regime(capsys, tmp_path):
    # the identity channel is not eps-LDP at any budget up to the ceiling
    path = tmp_path / "identity.json"
    channels.identity_channel(2).save(str(path))
    assert run_cli(capsys, "tighteps", "--channel", str(path)) == (2, "")


def test_audit(capsys):
    code, out = run_cli(capsys, "audit", "--depolarizing", "--eps", "1.0",
                        "--n", "200", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["consistent"] is True
    assert doc["result"]["max_divergence"] <= 1e-9


def test_divergence_single_line(capsys, tmp_path):
    rho = density_file(tmp_path, "rho.json", np.diag([0.9, 0.1]))
    sigma = density_file(tmp_path, "sigma.json", np.diag([0.5, 0.5]))
    code, out = run_cli(capsys, "divergence", "--gamma", "1.0",
                        "--rho", rho, "--sigma", sigma)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    assert abs(float(lines[0]) - 0.4) < 1e-12


def test_bounds_json_round_trip(capsys):
    code, out = run_cli(capsys, "bounds", "--family", "radial",
                        "--lambda", "0.6", "--alpha", "0.01", "--eps", "1.0")
    assert code == 0
    doc = json.loads(out)
    g = math.e
    expected = (g + 1.0) ** 2 / (0.01 * (g - 1.0) ** 2)
    assert abs(doc["result"]["N_upper_real"] - expected) < 1e-9
    # 17-significant-digit floats survive a JSON round trip bit-exactly
    assert doc["result"]["C1"] == float(f"{0.21301775147928992:.17g}")


def test_bounds_corollary1_regime_exit_code(capsys):
    code, _ = run_cli(capsys, "bounds", "--family", "radial",
                      "--lambda", "0.6", "--alpha", "0.01", "--eps", "1.5",
                      "--corollary1")
    assert code == 2


def test_bounds_thm2(capsys):
    code, out = run_cli(capsys, "bounds", "--family", "rotation",
                        "--lambda", "0.3", "--alpha", "0.05", "--eps", "0.25",
                        "--thm2")
    assert code == 0
    assert json.loads(out)["result"]["which"] == "restricted-c0"


def test_malformed_inputs_exit_3(capsys, tmp_path):
    code, _ = run_cli(capsys, "certify", "--channel", "/nonexistent.json",
                      "--eps", "1.0")
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "tighteps", "--channel", str(bad))
    assert code == 3
    # a channel dimension must be an integral number
    half = np.eye(3) * 0.5
    for d in (2.7, "2"):
        path = tmp_path / f"d-{d}.json"
        path.write_text(json.dumps({"d": d, "A": half.tolist(),
                                    "c": [0.0, 0.0, 0.0]}))
        for argv in (["certify", "--channel", str(path), "--eps", "1.0"],
                     ["tighteps", "--channel", str(path)],
                     ["audit", "--channel", str(path), "--eps", "1.0",
                      "--n", "5"]):
            assert run_cli(capsys, *argv) == (3, ""), (d, argv)
    code, _ = run_cli(capsys, "scaling", "--family", "radial",
                      "--lambda", "0.6", "--alpha", "0.01",
                      "--eps-grid", "0.5:0.1:20")
    assert code == 3
    for argv in (["certify", "--depolarizing"],
                 ["bounds", "--family", "radial", "--lambda", "0.6",
                  "--alpha", "0.01"],
                 ["audit", "--depolarizing", "--n", "5"],
                 ["simulate", "--family", "radial", "--lambda0", "0.6",
                  "--trials", "10"]):
        code, out = run_cli(capsys, *argv, "--eps", "nan")
        assert (code, out) == (3, "")
    rho = density_file(tmp_path, "rho.json", np.diag([0.9, 0.1]))
    not_a_state = density_file(tmp_path, "neg.json", np.diag([1.5, -0.5]))
    bounds = ["bounds", "--family", "radial", "--alpha", "0.01", "--eps", "0.3"]
    for argv in (["qfi", "--family", "radial", "--lambda", "nan"],
                 ["qfi", "--family", "axis-8", "--dim", "3", "--lambda", "0.9"],
                 bounds + ["--lambda", "nan"], bounds + ["--lambda", "1.5"],
                 bounds + ["--lambda", "0.6", "--alpha", "nan"],
                 bounds + ["--lambda", "0.6", "--alpha", "inf"],
                 ["simulate", "--family", "radial", "--lambda0", "nan",
                  "--eps", "0.5"],
                 ["simulate", "--family", "radial", "--lambda0", "1.5",
                  "--eps", "0.5"],
                 ["optimize", "--family", "radial", "--lambda", "nan",
                  "--eps", "0.5"],
                 ["optimize", "--family", "radial", "--lambda", "1.5",
                  "--eps", "0.5"],
                 ["divergence", "--gamma", "nan", "--rho", rho, "--sigma", rho],
                 ["divergence", "--gamma", "1", "--rho", not_a_state,
                  "--sigma", rho],
                 ["audit", "--depolarizing", "--eps", "1", "--n", "0"],
                 ["audit", "--depolarizing", "--eps", "1", "--seed", "-1"],
                 ["simulate", "--family", "radial", "--lambda0", "0.6",
                  "--eps", "0.5", "--n", "5", "--trials", "5",
                  "--alpha", "nan"]):
        assert run_cli(capsys, *argv) == (3, "")
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")  # a config must be a JSON object
    assert run_cli(capsys, "--config", str(cfg), "qfi", "--family", "radial",
                   "--lambda", "0.6") == (3, "")
    # a config value must be what the option's own parser takes
    simulate = ["simulate", "--family", "radial", "--lambda0", "0.6",
                "--eps", "1", "--n", "10"]
    for cfg_text in ('{"trials": 2.5}', '{"trials": [1]}',
                     '{"trials": {"a": 1}}', '{"trials": "abc"}',
                     '{"trials": true}', '{"alpha": "0.1"}',
                     '{"channel": 1}', '{"out_format": "xml"}'):
        cfg.write_text(cfg_text)
        assert run_cli(capsys, "--config", str(cfg), *simulate) == (3, ""), \
            cfg_text
    cfg.write_text('{"c_zero": 1}')
    assert run_cli(capsys, "--config", str(cfg), "optimize", "--family",
                   "radial", "--lambda", "0.6", "--eps", "1") == (3, "")
    # dimensions past bloch.MAX_DIM are refused before any allocation
    for argv in (["qfi", "--family", "axis-1", "--dim", "1000000",
                  "--lambda", "0.1"],
                 ["bounds", "--family", "axis-1", "--dim", "1000000",
                  "--lambda", "0.1", "--alpha", "0.01", "--eps", "0.5"],
                 ["audit", "--depolarizing", "--dim", "1000000", "--eps", "1",
                  "--n", "5"],
                 ["certify", "--depolarizing", "--dim", "1000000",
                  "--eps", "1"]):
        assert run_cli(capsys, *argv) == (3, ""), argv
    # counts past their bounds are refused before anything is allocated
    huge = "1000000000000"
    for argv in (["scaling", "--family", "radial", "--lambda", "0.6",
                  "--alpha", "0.01", "--eps-grid", f"0.01:0.5:{huge}"],
                 ["simulate", "--family", "radial", "--lambda0", "0.6",
                  "--eps", "0.5", "--trials", huge],
                 ["audit", "--depolarizing", "--dim", "3", "--eps", "1",
                  "--n", huge],
                 ["optimize", "--family", "radial", "--lambda", "0.6",
                  "--eps", "0.5", "--starts", huge]):
        assert run_cli(capsys, *argv) == (3, ""), argv
    # the report refuses its counts before it writes any part of the bundle
    for flag in ("--trials", "--starts"):
        bundle = tmp_path / f"bundle{flag}"
        assert run_cli(capsys, "report", "--family", "radial", "--out-dir",
                       str(bundle), flag, huge) == (3, ""), flag
        assert not bundle.exists(), flag
    # --dim means what it says: no silent qubit for d = 0 or a qubit family
    for argv in (["qfi", "--family", "axis-1", "--dim", "0", "--lambda", "0.1"],
                 ["audit", "--depolarizing", "--dim", "0", "--eps", "1",
                  "--n", "3"],
                 ["qfi", "--family", "radial", "--dim", "3", "--lambda", "0.5"],
                 ["bounds", "--family", "radial", "--lambda", "0.6",
                  "--alpha", "0.01", "--eps", "0.5", "--dim", "3"]):
        assert run_cli(capsys, *argv) == (3, ""), argv
    # a channel or density file with a NaN or infinite entry is bad input
    A = 0.5 * np.eye(3)
    A[0, 1] = np.nan
    nan_channel = tmp_path / "nan_channel.json"
    nan_channel.write_text(json.dumps({"d": 2, "A": A.tolist(), "c": [0] * 3}))
    inf_channel = tmp_path / "inf_channel.json"
    inf_channel.write_text(json.dumps(
        {"d": 2, "A": (0.5 * np.eye(3)).tolist(), "c": [np.inf, 0, 0]}))
    for path in (nan_channel, inf_channel):
        for argv in (["certify", "--channel", str(path), "--eps", "1"],
                     ["tighteps", "--channel", str(path)],
                     ["audit", "--channel", str(path), "--eps", "1",
                      "--n", "3"]):
            assert run_cli(capsys, *argv) == (3, ""), argv
    nan_rho = np.diag([0.9, 0.1])
    nan_rho[0, 0] = np.nan
    nan_rho = density_file(tmp_path, "nan_rho.json", nan_rho)
    assert run_cli(capsys, "divergence", "--gamma", "1.5", "--rho", nan_rho,
                   "--sigma", rho) == (3, "")
    # a ragged or non-numeric density or channel file is bad input
    for k, data in enumerate(([[[1, 0], [0, 0]], [[0, 0]]], "abc")):
        path = tmp_path / f"bad_rho{k}.json"
        path.write_text(json.dumps(data))
        assert run_cli(capsys, "divergence", "--gamma", "1", "--rho",
                       str(path), "--sigma", rho) == (3, ""), data
    for k, A in enumerate(("x", [[0.5, 0, 0], [0, 0.5], [0, 0, 0.5]])):
        path = tmp_path / f"bad_channel{k}.json"
        path.write_text(json.dumps({"d": 2, "A": A, "c": [0] * 3}))
        assert run_cli(capsys, "certify", "--channel", str(path),
                       "--eps", "1") == (3, ""), A


def test_unknown_flag_rejected():
    # --seed is offered only by the subcommands that read it
    for flag in (["--frobnicate"], ["--seed", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "qldp.cli", "qfi", "--family", "radial",
             "--lambda", "0.6", *flag],
            capture_output=True, text=True)
        assert proc.returncode == 2  # argparse usage error
        assert "unrecognized" in proc.stderr


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_undefined_bounds_are_null(capsys):
    # <dw, w> = 0 on the rotation family: C1 and everything built on it
    code, out = run_cli(capsys, "bounds", "--family", "rotation",
                        "--lambda", "0.3", "--alpha", "0.01", "--eps", "0.5")
    assert code == 0
    res = json.loads(out, parse_constant=_reject_constant)["result"]
    for key in ("C1", "N_lower", "N_lower_real", "fisher_cap"):
        assert res[key] is None
    code, out = run_cli(capsys, "scaling", "--family", "rotation",
                        "--lambda", "0.3", "--alpha", "0.01",
                        "--eps-grid", "0.1:0.5:3")
    assert code == 0
    rows = list(csv.reader(out.strip().split("\n")))
    assert [(r[1], r[3]) for r in rows[1:]] == [("", "")] * 3
    # no cap applies to the rotation family without --c-zero
    code, out = run_cli(capsys, "optimize", "--family", "rotation",
                        "--lambda", "0.3", "--eps", "0.6", "--starts", "2")
    assert code == 0
    res = json.loads(out, parse_constant=_reject_constant)["result"]
    assert res["fisher_cap"] is None and res["cap_ratio"] is None
    code, out = run_cli(capsys, "optimize-sweep", "--family", "rotation",
                        "--lambda", "0.3", "--eps-grid", "0.1:1:2",
                        "--starts", "1")
    assert code == 0
    rows = list(csv.reader(out.strip().split("\n")))
    assert [(r[2], r[3]) for r in rows[1:]] == [("", "")] * 2


def test_scaling_csv_and_upper_slope(capsys):
    code, out = run_cli(capsys, "scaling", "--family", "radial",
                        "--lambda", "0.6", "--alpha", "0.01",
                        "--eps-grid", "0.01:0.5:20")
    assert code == 0
    rows = list(csv.reader(out.strip().split("\n")))
    assert rows[0] == ["eps", "N_lower", "N_upper", "fisher_cap"]
    assert len(rows) == 21
    eps = np.array([float(r[0]) for r in rows[1:]])
    upper = np.array([float(r[2]) for r in rows[1:]])
    slope = np.polyfit(np.log(eps), np.log(upper), 1)[0]
    assert -2.05 <= slope <= -1.95


def test_simulate_json(capsys):
    code, out = run_cli(capsys, "simulate", "--family", "radial",
                        "--lambda0", "0.6", "--eps", "1.0",
                        "--alpha", "0.01", "--trials", "2000", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["n_trials"] == 2000
    assert doc["result"]["empirical_mse"] < 0.02


def test_optimize_json(capsys):
    code, out = run_cli(capsys, "optimize", "--family", "radial",
                        "--lambda", "0.6", "--eps", "1.0", "--starts", "4",
                        "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["cap_ratio"] <= 1.0 + 1e-8
    assert doc["result"]["feasibility_margin"] <= 1e-9


def test_out_file_and_rerun_identical(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _ = run_cli(capsys, "optimize", "--family", "radial",
                          "--lambda", "0.6", "--eps", "0.5", "--starts", "3",
                          "--seed", "7", "--out", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


OUT_ARGVS = [
    ["qfi", "--family", "radial", "--lambda", "0.6"],
    ["certify", "--depolarizing", "--eps", "1"],
    ["tighteps", "--channel={channel}"],
    ["audit", "--depolarizing", "--eps", "1", "--n", "20", "--seed", "3"],
    ["bounds", "--family", "radial", "--lambda", "0.6", "--alpha", "0.01",
     "--eps", "0.3"],
    ["scaling", "--family", "radial", "--lambda", "0.6", "--alpha", "0.01",
     "--eps-grid", "0.1:1:3"],
    ["simulate", "--family", "radial", "--lambda0", "0.6", "--eps", "1",
     "--trials", "50", "--out-format", "csv"],
    ["optimize", "--family", "radial", "--lambda", "0.6", "--eps", "0.5",
     "--starts", "1"],
    ["optimize-sweep", "--family", "radial", "--lambda", "0.6",
     "--eps-grid", "0.2:1:2", "--starts", "1"],
]


@pytest.mark.parametrize("argv", OUT_ARGVS, ids=[a[0] for a in OUT_ARGVS])
def test_out_file_is_the_stdout_artifact(argv, capsys, tmp_path, cli_files):
    argv = [t.format(**cli_files) for t in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out
    path = tmp_path / "artifact"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "")
    assert path.read_bytes() == out.encode()


def test_config_file_with_flag_precedence(capsys, tmp_path, cli_files):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 0.6, "alpha": 0.01, "eps": 0.5}))
    code, out = run_cli(capsys, "--config", str(cfg), "bounds",
                        "--family", "radial", "--lambda", "0.6",
                        "--alpha", "0.02", "--eps", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["alpha"] == 0.02  # flag wins over config file
    cfg.write_text(json.dumps({"trials": 7}))
    code, out = run_cli(capsys, "--config", str(cfg), "simulate",
                        "--family", "radial", "--lambda0", "0.6", "--eps", "1.0")
    assert code == 0
    assert json.loads(out)["result"]["n_trials"] == 7  # reaches the subcommand
    cfg.write_text(json.dumps({"trials": 7.0}))  # integral: taken as 7
    code, out = run_cli(capsys, "--config", str(cfg), "simulate",
                        "--family", "radial", "--lambda0", "0.6", "--eps", "1.0")
    assert code == 0
    assert json.loads(out)["config"]["trials"] == 7
    # a flag also beats the file's value for its either-or partner
    bounds = ["bounds", "--family", "radial", "--lambda", "0.6", "--alpha",
              "0.01", "--eps", "0.3", "--thm2"]
    certify = ["certify", "--depolarizing", "--eps", "1"]
    for key, value, argv in (("corollary1", True, bounds),
                             ("channel", cli_files["channel"], certify)):
        cfg.write_text(json.dumps({key: value}))
        code, out = run_cli(capsys, "--config", str(cfg), *argv)
        assert code == 0, key
        assert json.loads(out)["result"] \
            == json.loads(run_cli(capsys, *argv)[1])["result"], key


def test_config_file_supplies_a_required_option(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "radial"}))
    for config in (["--config", str(cfg)], [f"--config={cfg}"]):
        code, out = run_cli(capsys, *config, "qfi", "--lambda", "0.6")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["family"] == "radial"
        assert abs(doc["result"]["value"] - 1.5625) < 1e-12
    code, out = run_cli(capsys, "--config", str(cfg), "qfi",
                        "--family", "rotation", "--lambda", "0.6")
    assert code == 0
    assert json.loads(out)["config"]["family"] == "rotation"  # flag wins
    code, out = run_cli(capsys, "--config=", "qfi", "--family", "radial",
                        "--lambda", "0.6")
    assert code == 0  # an empty --config= reads no file
    # an option neither the file nor the command line gives is still missing
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "qfi"])
    assert exc.value.code == 2
    # and the file's values last for its own run only
    with pytest.raises(SystemExit) as exc:
        main(["qfi", "--lambda", "0.6"])
    assert exc.value.code == 2


def test_report_bundle(capsys, tmp_path):
    outdir = tmp_path / "bundle"
    code, _ = run_cli(capsys, "report", "--family", "radial",
                      "--lambda", "0.6", "--alpha", "0.01",
                      "--eps-grid", "0.05:0.5:4", "--starts", "2",
                      "--trials", "500", "--seed", "1",
                      "--out-dir", str(outdir))
    assert code == 0
    names = {"bounds.csv", "optimizer.csv", "certification.csv",
             "simulation.json", "manifest.json"}
    assert {p.name for p in outdir.iterdir()} == names
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["schema"] == "qldp/1"
    assert set(manifest["files"]) == names - {"manifest.json"}
    sim = json.loads((outdir / "simulation.json").read_text())
    assert sim["schema"] == "qldp/1"
    with open(outdir / "bounds.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5


@pytest.mark.parametrize("flags, code", [
    (["--eps-grid", "0.1:20:3"], 2),  # 20 is above the channel budget
    (["--trials", "0"], 3),
    (["--starts", "1001"], 3),
], ids=["grid", "trials", "starts"])
def test_refused_report_writes_no_file(flags, code, capsys, tmp_path):
    outdir = tmp_path / "bundle"
    assert run_cli(capsys, "report", "--family", "radial", "--eps-grid",
                   "0.1:1:3", "--starts", "1", "--trials", "50", *flags,
                   "--out-dir", str(outdir)) == (code, "")
    assert not outdir.exists()


def test_report_rerun_byte_identical(capsys, tmp_path):
    args = ["report", "--family", "radial", "--lambda", "0.6",
            "--alpha", "0.01", "--eps-grid", "0.05:0.5:3", "--starts", "2",
            "--trials", "200", "--seed", "5"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        code, _ = run_cli(capsys, *args, "--out-dir", str(d))
        assert code == 0
    for name in ("bounds.csv", "optimizer.csv", "certification.csv",
                 "simulation.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def exit_code(argv):
    """main's exit code, argparse's usage errors (SystemExit) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# regression rows: a malformed axis name and --depolarizing without --eps
# raised (exit 1), both options of an either-or pair ran with one ignored
# (exit 0), and qfi refused a radial lambda that bounds and optimize took
# (exit 3)
QFI = ["qfi", "--lambda", "0.1", "--family"]
EXIT_CODES = [
    (QFI + ["axis-x"], 3),
    (QFI + ["axis-"], 3),
    (QFI + ["axis-1.5"], 3),
    (["certify", "--depolarizing", "--at-eps", "0.5"], 3),
    (["certify", "--channel={channel}", "--depolarizing", "--eps", "1"], 2),
    (["audit", "--channel={channel}", "--depolarizing", "--eps", "1",
      "--n", "5"], 2),
    (["bounds", "--family", "radial", "--lambda", "0.6", "--alpha", "0.01",
      "--eps", "0.3", "--corollary1", "--thm2"], 2),
    (["qfi", "--family", "radial", "--lambda", "1.0000000001"], 0),
    # no information flows at eps = 0: out of regime, as for the bounds
    (["optimize", "--family", "radial", "--lambda", "0.6", "--eps", "0",
      "--starts", "1"], 2),
    (["simulate", "--family", "radial", "--lambda0", "0.6", "--n", "5",
      "--eps", "0", "--trials", "5"], 2),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES,
                         ids=[" ".join(argv) for argv, _ in EXIT_CODES])
def test_exit_codes(argv, code, capsys, cli_files):
    argv = [t.format(**cli_files) for t in argv]
    assert exit_code(argv) == code, argv
    out = capsys.readouterr().out
    assert (out == "") == (code != 0), argv


# a non-channel (A = 2I, c = 0) is refused alike at d = 2 (the closed-form
# qubit audit) and d = 3 (density matrices); a channel file's d is a
# dimension in [2, 16]
REFUSALS = [
    (["audit", "--channel={double2}", "--eps", "1", "--n", "5"],
     "invalid input: not a state"),
    (["audit", "--channel={double3}", "--eps", "1", "--n", "5"],
     "invalid input: not a state"),
    (["certify", "--channel={dim_negative}", "--eps", "1"],
     "invalid input: dimension must be an integer in [2, 16], got -2"),
]


@pytest.mark.parametrize("argv, prefix", REFUSALS,
                         ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_refusal_messages(argv, prefix, capsys, cli_files):
    argv = [t.format(**cli_files) for t in argv]
    assert exit_code(argv) == 3, argv
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix), err


def test_extreme_budget_is_out_of_regime(capsys):
    # e^eps - 1 and eps^2 underflow at eps = 1e-300: no count is finite
    bounds = ["bounds", "--family", "radial", "--lambda", "0.6",
              "--alpha", "0.01", "--eps", "1e-300"]
    # at eps = 40 double precision cannot resolve a channel's privacy
    for argv in (bounds, bounds + ["--corollary1"], bounds + ["--thm2"],
                 ["scaling", "--family", "radial", "--lambda", "0.6",
                  "--alpha", "0.01", "--eps-grid", "1e-300:1e-200:3"],
                 ["certify", "--depolarizing", "--eps", "40"],
                 ["audit", "--depolarizing", "--dim", "3", "--eps", "40",
                  "--n", "5"],
                 ["optimize", "--family", "radial", "--lambda", "0.6",
                  "--eps", "40", "--starts", "1"],
                 ["simulate", "--family", "radial", "--lambda0", "0.6",
                  "--eps", "40", "--trials", "10"]):
        assert run_cli(capsys, *argv) == (2, ""), argv


# every float draw mixes plausible values with NaN, infinities, subnormals
# and the extremes of double precision
REALS = st.one_of(st.floats(0.01, 1.5), st.floats(-2.0, 2.0), st.floats(),
                  st.just(1.0000000001))
COUNTS = st.integers(-1, 3)


def _flag(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


def _maybe(*options):
    return st.one_of(st.just([]), *options)


FAMILY = _flag("family", st.sampled_from(
    ["radial", "rotation", "scaled-rotation", "axis-1", "axis-3", "axis-x",
     "axis-", "axis-1.5"]))
DIM = _flag("dim", st.integers(-1, 4))
LAMBDA, ALPHA, EPS = (_flag(name, REALS) for name in ("lambda", "alpha", "eps"))
GRID = _flag("eps-grid", st.one_of(
    st.builds("{!r}:{!r}:{}".format, REALS, REALS, st.integers(1, 3)),
    st.builds(lambda lo, n: f"{lo!r}:{10 * lo!r}:{n}", REALS,
              st.integers(2, 3))))
STARTS, SEED, N, TRIALS = (_flag(name, COUNTS)
                           for name in ("starts", "seed", "n", "trials"))
SOURCE = st.sampled_from([["--channel={channel}"], ["--depolarizing"],
                          ["--channel={channel}", "--depolarizing"]])
OUT = _maybe(st.just(["--out={tmp}/out"]))
# report draws mostly valid options, so that many bundles are written: at
# most 3 budgets, some past the channel budget 10, and cheap searches
REPORT = [
    _flag("family", st.sampled_from(["radial", "rotation", "axis-2",
                                     "axis-x"])),
    _maybe(_flag("lambda", st.sampled_from([0.3, -0.9, 1.0000000001, 1.5]))),
    _maybe(_flag("alpha", st.sampled_from([0.01, 0.2, 0.0]))),
    st.one_of(_flag("eps-grid", st.builds(
        "{}:{}:{}".format, st.sampled_from([0.05, 0.5, 4.0]),
        st.sampled_from([1.0, 8.0, 20.0]), st.integers(2, 3))), GRID),
    _flag("starts", st.integers(0, 2)), _flag("trials", st.integers(0, 3)),
    st.just(["--out-dir={tmp}/report"])]

# subcommand -> option groups; files are {channel}, {rho}, {sigma}, and
# the run's own empty directory {tmp}
COMMANDS = {
    "qfi": [FAMILY, DIM, LAMBDA, OUT],
    "certify": [SOURCE, _maybe(EPS), _maybe(_flag("at-eps", REALS)), DIM, OUT],
    "tighteps": [st.just(["--channel={channel}"]), OUT],
    "audit": [SOURCE, EPS, N, DIM, SEED, OUT],
    "divergence": [_flag("gamma", REALS), st.just(["--rho={rho}",
                                                   "--sigma={sigma}"])],
    "bounds": [FAMILY, DIM, LAMBDA, ALPHA, EPS, _maybe(_flag("bias", REALS)),
               _maybe(st.just(["--corollary1"]), st.just(["--thm2"]),
                      st.just(["--corollary1", "--thm2"])), OUT],
    "scaling": [FAMILY, LAMBDA, ALPHA, GRID, OUT],
    "simulate": [FAMILY, _flag("lambda0", REALS), EPS, ALPHA, TRIALS, SEED,
                 _maybe(N, st.just(["--channel={channel}", "--n=3"])), OUT],
    "optimize": [FAMILY, LAMBDA, EPS, STARTS, SEED,
                 _maybe(st.just(["--c-zero"])), OUT],
    "optimize-sweep": [FAMILY, LAMBDA, GRID, STARTS, OUT],
    "report": REPORT,
}
ARGVS = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda cmd: st.tuples(*COMMANDS[cmd]).map(
        lambda groups: [cmd] + [t for g in groups for t in g]))


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    channel = str(tmp / "chan.json")
    channels.AffineChannel(2, np.diag([0.5, 0.3, 0.2]),
                           np.array([0.1, 0.05, 0.0])).save(channel)
    files = {}
    for name, d in (("double2", 2), ("double3", 3), ("dim_negative", -2)):
        files[name] = str(tmp / f"{name}.json")
        n = d * d - 1
        Path(files[name]).write_text(json.dumps(
            {"d": d, "A": (2.0 * np.eye(n)).tolist(), "c": [0.0] * n}))
    return {**files, "channel": channel,
            "rho": density_file(tmp, "rho.json", np.diag([0.9, 0.1])),
            "sigma": density_file(tmp, "sigma.json",
                                  [[0.5, 0.2j], [-0.2j, 0.5]])}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=ARGVS)
def test_every_subcommand_keeps_exit_and_output_contract(argv, cli_files):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [t.format(tmp=tmp, **cli_files) for t in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = exit_code(argv)
        out = out.getvalue()
        files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        assert code in (0, 2, 3), (argv, err.getvalue())
        if code != 0:
            assert (out, files) == ("", []), argv  # a refusal writes nothing
            return
        assert (out == "") == bool(files), argv  # to its files or to stdout
        texts = [p.read_text() for p in files] or [out]
    for text in texts:
        if argv[0] == "divergence":
            assert math.isfinite(float(text)), argv
        elif text.startswith("{"):
            json.loads(text, parse_constant=_reject_constant)
        else:
            for row in csv.reader(io.StringIO(text)):
                assert not {f.lower() for f in row} & {"nan", "inf", "-inf"}, \
                    argv
