import json

import pytest

from kwlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_verify_corr(tmp_path, capsys):
    code, out = run(capsys, "gen", "triangle", "--x", "0.5")
    assert code == 0
    path = tmp_path / "t.json"
    path.write_text(out)
    code, out = run(capsys, "verify", "corr", "-g", str(path), "--draws", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["suite"] == "corr"


def test_verify_all_square_torus(tmp_path, capsys):
    code, out = run(capsys, "gen", "square-torus", "2", "--x", "0.4")
    path = tmp_path / "s.json"
    path.write_text(out)
    code, out = run(capsys, "verify", "all", "-g", str(path), "--draws", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"]
    ran = {r["suite"] for r in rep["reports"]}
    assert {"corr", "det", "kw1", "kw2", "pf"} <= ran


def test_critical_beta_command(tmp_path, capsys):
    code, out = run(capsys, "gen", "rect-torus", "--J", "1.0", "--beta", "0.5")
    path = tmp_path / "r.json"
    path.write_text(out)
    code, out = run(capsys, "critical-beta", "-g", str(path))
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["beta_c"] - 0.4406868) < 1e-6


def test_z_commands(tmp_path, capsys):
    code, out = run(capsys, "gen", "rect-torus", "--x", "0.3", "0.4")
    path = tmp_path / "r.json"
    path.write_text(out)
    code, out = run(capsys, "z-ising", "-g", str(path), "--beta", "0.4")
    assert code == 0 and json.loads(out)["pass"]
    code, out = run(capsys, "z-dimer", "-g", str(path))
    assert code == 0 and json.loads(out)["pass"]


def test_observable_and_csv(tmp_path, capsys):
    code, out = run(capsys, "gen", "triangle", "--x", "0.3")
    path = tmp_path / "t.json"
    path.write_text(out)
    csv = tmp_path / "obs.csv"
    code, out = run(capsys, "observable", "-g", str(path), "--dart", "0",
                    "--csv", str(csv))
    assert code == 0
    assert csv.read_text().startswith("x,y,re,im")
    assert len(csv.read_text().strip().splitlines()) == 4


def test_spectral_and_tau_and_free_energy(tmp_path, capsys):
    x = 0.41421356237309503
    code, out = run(capsys, "gen", "rect-torus", "--x", str(x), str(x))
    path = tmp_path / "c.json"
    path.write_text(out)
    code, out = run(capsys, "tau", "-g", str(path))
    assert code == 0
    tau = json.loads(out)["tau"]
    assert abs(tau[0]) < 1e-6 and abs(tau[1] - 1.0) < 1e-6
    code, out = run(capsys, "spectral", "-g", str(path), "--grid", "8",
                    "--csv", str(tmp_path / "sp.csv"))
    assert code == 0
    assert (tmp_path / "sp.csv").read_text().count("\n") == 65
    code, out = run(capsys, "free-energy", "-g", str(path), "--grid", "16")
    assert code == 0
    assert "free_energy" in json.loads(out)


def test_h_function_command(tmp_path, capsys):
    x = 0.41421356237309503
    code, out = run(capsys, "gen", "square-torus", "2", "--x", str(x))
    path = tmp_path / "k.json"
    path.write_text(out)
    code, out = run(capsys, "h-function", "-g", str(path), "--from", "kernel",
                    "--csv", str(tmp_path / "h.csv"))
    assert code == 0
    rep = json.loads(out)
    assert len(rep["periods"]) == 2
    code, out = run(capsys, "h-function", "-g", str(path), "--from",
                    "observable", "--dart", "0")
    assert code == 0


def test_exit_code_on_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "verify", "corr", "-g", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"


def test_exit_code_on_size_guard(tmp_path, capsys):
    code, out = run(capsys, "gen", "square-torus", "4", "--x", "0.4")
    path = tmp_path / "big.json"
    path.write_text(out)
    code, out = run(capsys, "verify", "inv", "-g", str(path))
    assert code == 3
    assert json.loads(out)["error"] == "size_guard"


def test_seeded_output_is_identical(tmp_path, capsys):
    code, out = run(capsys, "gen", "rect-torus", "--x", "0.3", "0.4")
    path = tmp_path / "r.json"
    path.write_text(out)
    _, out1 = run(capsys, "verify", "det", "-g", str(path), "--seed", "9")
    _, out2 = run(capsys, "verify", "det", "-g", str(path), "--seed", "9")
    assert out1 == out2


def test_verify_all_at_critical_weight(tmp_path, capsys):
    # default x is critical, where det KW = 0 and the inv suite must not invert
    code, out = run(capsys, "gen", "square-torus", "2")
    path = tmp_path / "c.json"
    path.write_text(out)
    code, out = run(capsys, "verify", "all", "-g", str(path))
    assert code == 0
    rep = json.loads(out)
    assert "inv" in {r["suite"] for r in rep["reports"]}


def test_nan_weight_is_invalid_input(tmp_path, capsys):
    code, out = run(capsys, "gen", "triangle", "--x", "0.5")
    obj = json.loads(out)
    obj["edges"][0]["x"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, "verify", "corr", "-g", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"
