import json
import os
import subprocess
import sys

import pytest

import kwlab

from kwlab import fixtures as fx
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


def test_critical_beta_square_torus_8(tmp_path, capsys):
    # the homotopy-tracked root had the wrong sign on this torus above
    # beta = 1, so the command found no sign change and exited 2
    code, out = run(capsys, "gen", "square-torus", "8")
    path = tmp_path / "s8.json"
    path.write_text(out)
    code, out = run(capsys, "critical-beta", "-g", str(path))
    assert code == 0
    assert abs(json.loads(out)["beta_c"] - 1.0) <= 1e-10


def test_critical_beta_square_torus_12(tmp_path, capsys):
    # 576 darts: every root of the Brent search is a panel-form Pfaffian
    code, out = run(capsys, "gen", "square-torus", "12")
    path = tmp_path / "s12.json"
    path.write_text(out)
    code, out = run(capsys, "critical-beta", "-g", str(path))
    assert code == 0
    assert abs(json.loads(out)["beta_c"] - 1.0) <= 1e-10


def test_cli_import_leaves_scipy_out(tmp_path, capsys):
    # the package depends on numpy only, and a scipy import would add about
    # half a second to every CLI start; numpy.random about 14 ms, so the
    # kernel probes and the seeded suites draw from linalg's own stream
    # (64 darts: h-function and the inverse observable both take the probe
    # route).  numpy before 2.0 imports numpy.random itself, so the listing
    # names what kwlab adds to the modules of ``import numpy``.
    src = os.path.dirname(os.path.dirname(kwlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "sq4.json"
    path.write_text(run(capsys, "gen", "square-torus", "4")[1])
    regular = tmp_path / "sq4r.json"
    regular.write_text(
        run(capsys, "gen", "square-torus", "4", "--x", "0.3")[1])
    listing = ("print(sorted(m for m in set(sys.modules) - base if "
               "m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    start = "import sys, numpy; base = set(sys.modules); import kwlab.cli; "
    for code in (start + listing,
                 start + "kwlab.cli.main(sys.argv[1:]); " + listing):
        out = subprocess.run(
            [sys.executable, "-c", code, "h-function", "--from", "kernel",
             "-g", str(path)],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip().splitlines()[-1] == "[]"
    assert '"sholo_defect"' in out.stdout
    out = subprocess.run(
        [sys.executable, "-c", code, "observable", "--dart", "3", "-g",
         str(regular)],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    # 32 edges, past the combinatorial guard: the inverse backend answered
    assert '"values"' in out.stdout
    # the seeded suites: every one on the 2x2 torus and on the plane, and
    # the duality draws on the rectangular torus
    for name, argv in (("s2", ("square-torus", "2")), ("t", ("triangle",)),
                       ("r", ("rect-torus",))):
        (tmp_path / f"{name}.json").write_text(run(capsys, "gen", *argv)[1])
    for suite, name in (("all", "s2"), ("all", "t"), ("kw1", "r")):
        out = subprocess.run(
            [sys.executable, "-c", code, "verify", suite, "-g",
             str(tmp_path / f"{name}.json")],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip().splitlines()[-1] == "[]", (suite, name)
        assert '"pass": true' in out.stdout


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


@pytest.mark.parametrize("fixture", ["rect-torus", "honeycomb-torus"])
def test_tau_off_criticality_is_invalid_input(tmp_path, capsys, fixture):
    # both default weights are off criticality, where KW(1, 1) is invertible
    code, out = run(capsys, "gen", fixture)
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out = run(capsys, "tau", "-g", str(path))
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] == "invalid_input"
    assert "not critical" in rep["message"]


def test_verify_kw2_on_critical_square_torus_12(tmp_path, capsys):
    # both signed roots at (1, 1) are rounding noise at criticality, a few
    # 1e-12 on 576 darts: the sign there is undefined, not a failed check
    code, out = run(capsys, "gen", "square-torus", "12")
    path = tmp_path / "s12.json"
    path.write_text(out)
    code, out = run(capsys, "verify", "kw2", "-g", str(path))
    assert code == 0
    assert json.loads(out)["pass"]


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
    # off criticality the observable pinned at vertex 0, where the homology
    # walks start, is not s-holomorphic there: no periods
    code, out = run(capsys, "gen", "square-torus", "2", "--x", "0.37")
    path.write_text(out)
    code, out = run(capsys, "h-function", "-g", str(path), "--from",
                    "observable", "--dart", "0")
    assert code == 0
    assert json.loads(out)["periods"] is None


def test_h_function_kernel_is_deterministic(tmp_path, capsys):
    from kwlab.fixtures import square_torus
    from kwlab.sholo import integrate_square, kernel_observables

    code, out = run(capsys, "gen", "square-torus", "4")
    path = tmp_path / "k.json"
    path.write_text(out)
    argv = ("h-function", "-g", str(path), "--from", "kernel")
    code, first = run(capsys, *argv)
    assert code == 0
    code, second = run(capsys, *argv)
    assert code == 0 and first == second
    # the integrated F is the first kernel function
    g = square_torus(4)
    h = integrate_square(g, kernel_observables(g)[0])
    rep = json.loads(first)
    # the Lambda nodes in order: vertices, then faces
    names = ([f"v{i}" for i in range(g.nv)]
             + [f"f{j}" for j in range(len(g.faces))])
    assert list(rep["values"]) == names
    assert list(rep["values"].values()) == h.values.tolist()
    assert rep["periods"] == h.periods
    assert rep["base_point"] == ["v", 0]


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


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_verify_all_at_critical_weight(tmp_path, capsys, seed):
    # default x is critical, where det KW = 0 and the inv suite must not invert
    code, out = run(capsys, "gen", "square-torus", "2")
    path = tmp_path / "c.json"
    path.write_text(out)
    code, out = run(capsys, "verify", "all", "-g", str(path),
                    "--seed", str(seed))
    assert code == 0
    rep = json.loads(out)
    assert "inv" in {r["suite"] for r in rep["reports"]}


@pytest.mark.parametrize("fixture", [["triangle", "--x", "0"],
                                     ["honeycomb-torus", "--x", "0", "0", "0"]])
def test_verify_sholo_rejects_zero_weights(tmp_path, capsys, fixture):
    # S drops a zero-weight edge, so the criteria cannot be compared there
    code, out = run(capsys, "gen", *fixture)
    path = tmp_path / "z.json"
    path.write_text(out)
    code, out = run(capsys, "verify", "sholo", "-g", str(path))
    assert code == 2 and "edge 0" in json.loads(out)["message"]
    code, out = run(capsys, "verify", "all", "-g", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"]
    skipped = {s["suite"]: s["reason"] for s in rep["skipped"]}
    assert "edge 0" in skipped["sholo"]


def test_nan_weight_is_invalid_input(tmp_path, capsys):
    code, out = run(capsys, "gen", "triangle", "--x", "0.5")
    obj = json.loads(out)
    obj["edges"][0]["x"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, "verify", "corr", "-g", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"


def _triangle_json(capsys):
    _, out = run(capsys, "gen", "triangle", "--x", "0.5")
    return json.loads(out)


def _non_object(obj):
    return [1, 2]


def _non_numeric_weight(obj):
    obj["edges"][0]["x"] = "abc"
    return obj


def _endpoint_out_of_range(obj):
    obj["edges"][0]["v"] = 99
    return obj


def _nan_coordinate(obj):
    obj["vertices"][0]["x"] = float("nan")
    return obj


def _torus_json():
    return fx.rect_torus(0.3, 0.4).to_json()


def _nan_lattice(obj):
    obj = _torus_json()
    obj["lattice"][0][1] = float("nan")
    return obj


def _inf_lattice(obj):
    obj = _torus_json()
    obj["lattice"][1][1] = float("inf")
    return obj


def _nan_dart_angle(obj):
    obj["dart_angles"] = {"0": float("nan")}
    return obj


@pytest.mark.parametrize("mutate, field", [
    pytest.param(f, field, id=f.__name__) for f, field in [
        (_non_object, "object"), (_non_numeric_weight, "malformed"),
        (_endpoint_out_of_range, "endpoints"),
        (_nan_coordinate, "coordinates"), (_nan_lattice, "lattice"),
        (_inf_lattice, "lattice"), (_nan_dart_angle, "dart_angles")]])
def test_malformed_fixture_is_invalid_input(tmp_path, capsys, mutate, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(_triangle_json(capsys))))
    code = main(["verify", "corr", "-g", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"
    assert field in json.loads(out)["message"]
    assert err == ""


@pytest.mark.parametrize("argv", [["free-energy", "--grid", "3000"],
                                  ["spectral", "--grid", "100000"]],
                         ids=["free-energy", "spectral"])
def test_huge_grid_is_a_size_guard(tmp_path, capsys, argv):
    # the character stack would take gigabytes: refused before it is built
    code, out = run(capsys, "gen", "square-torus", "2")
    path = tmp_path / "s.json"
    path.write_text(out)
    code = main([argv[0], "-g", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["error"] == "size_guard"
    assert captured.err == ""


@pytest.mark.parametrize("dart", ["99", "-1"])
def test_observable_dart_out_of_range(tmp_path, capsys, dart):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(_triangle_json(capsys)))
    code, out = run(capsys, "observable", "-g", str(path), "--dart", dart)
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"


@pytest.mark.parametrize("command", ["spectral", "free-energy"])
@pytest.mark.parametrize("grid", ["0", "-1"])
def test_grid_must_be_positive(tmp_path, capsys, command, grid):
    code, out = run(capsys, "gen", "rect-torus", "--x", "0.3", "0.4")
    path = tmp_path / "r.json"
    path.write_text(out)
    code, out = run(capsys, command, "-g", str(path), "--grid", grid)
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"


def test_z_ising_at_beta_zero(tmp_path, capsys):
    # coupling form: beta = 0 is the infinite-temperature point, Z = 2^V
    code, out = run(capsys, "gen", "rect-torus", "--J", "1.0", "--beta", "0.5")
    path = tmp_path / "j.json"
    path.write_text(out)
    code, out = run(capsys, "z-ising", "-g", str(path), "--beta", "0")
    rep = json.loads(out)
    assert code == 0 and rep["pass"]
    assert rep["spins"] == 2.0
    assert rep["kac_ward"] == pytest.approx(2.0, rel=1e-12)
    # x form: the couplings J = arctanh(x) / beta are undefined at beta = 0
    code, out = run(capsys, "gen", "rect-torus", "--x", "0.3", "0.4")
    path.write_text(out)
    code, out = run(capsys, "z-ising", "-g", str(path), "--beta", "0")
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"


@pytest.mark.parametrize("suite", ["det", "all"])
@pytest.mark.parametrize("draws", ["0", "-2"])
def test_draws_must_be_positive(tmp_path, capsys, suite, draws):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(_triangle_json(capsys)))
    code, out = run(capsys, "verify", suite, "-g", str(path), "--draws", draws)
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"


@pytest.mark.parametrize("suite",
                         ["corr", "det", "kw1", "kw2", "sholo", "all"])
def test_negative_seed_is_invalid_input(tmp_path, capsys, suite):
    path = tmp_path / "r.json"
    path.write_text(run(capsys, "gen", "rect-torus")[1])
    code, out = run(capsys, "verify", suite, "-g", str(path), "--seed", "-1")
    assert code == 2
    assert json.loads(out) == {"error": "invalid_input",
                               "message": "seed must be non-negative, got -1"}
    # a seed beyond 64 bits reads the stream at a key of its own
    code, out = run(capsys, "verify", suite, "-g", str(path), "--draws", "2",
                    "--seed", str(3 << 70))
    assert code == 0 and json.loads(out)["seed"] == 3 << 70


@pytest.mark.parametrize("argv, message", [
    (["gen", "square-torus", "-1"], "lattice size must be at least 1, got -1"),
    (["gen", "square-torus", "0"], "lattice size must be at least 1, got 0"),
    (["verify", "corr", "-g", "empty.json"], "a graph needs at least one edge"),
], ids=["size-1", "size0", "empty-torus"])
def test_empty_graph_is_invalid_input(tmp_path, capsys, argv, message):
    # a torus with no vertices and no edges
    (tmp_path / "empty.json").write_text(json.dumps(
        {"surface": "torus", "lattice": [[1.0, 0.0], [0.0, 1.0]],
         "vertices": [], "edges": []}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": "invalid_input", "message": message}


@pytest.mark.parametrize("shift, message", [
    ([1, 0], "planar graphs cannot wind around a lattice"),
    ("garbage", "malformed graph data")], ids=["winding", "garbage"])
def test_planar_edge_shift_is_invalid_input(tmp_path, capsys, shift, message):
    obj = _triangle_json(capsys)
    obj["edges"][0]["shift"] = shift
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", "all", "-g", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == "invalid_input"
    assert message in json.loads(out)["message"]


def _no_constants(text):
    """The JSON in ``text``; NaN and Infinity are not JSON and fail."""
    def reject(name):
        raise AssertionError(f"{name} in the output")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["free-energy", "--beta", "nan"], ["free-energy", "--beta", "inf"],
    ["z-ising", "--beta", "nan"], ["z-ising", "--beta=-inf"]],
    ids=["free-energy-nan", "free-energy-inf", "z-ising-nan", "z-ising-inf"])
def test_non_finite_beta_is_invalid_input(tmp_path, capsys, argv):
    # free-energy used to print NaN or Infinity with exit 0, and z-ising
    # --beta nan to exit 1 as if its check had failed
    code, out = run(capsys, "gen", "square-torus", "2", "--J", "1",
                    "--beta", "0.5")
    path = tmp_path / "j.json"
    path.write_text(out)
    code = main([*argv, "-g", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    rep = _no_constants(out)
    assert rep["error"] == "invalid_input"
    assert rep["message"].startswith("beta must be finite")


@pytest.mark.parametrize("argv, flag", [
    (["rect-torus", "--J", "inf", "1", "--beta", "1"], "--J"),
    (["square-torus", "2", "--J", "1", "--beta", "inf"], "--beta"),
    (["honeycomb-torus", "--J", "nan", "--beta", "1"], "--J"),
    (["triangle", "--x", "nan"], "--x"),
    (["rect-torus", "--theta", "inf", "1"], "--theta")])
def test_gen_rejects_non_finite_flags(capsys, argv, flag):
    code = main(["gen", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert _no_constants(out) == {"error": "invalid_input",
                                  "message": f"{flag} must be finite"}


@pytest.mark.parametrize("fixture, n", [
    ("triangle", 3), ("square-torus", 2), ("rect-torus", 2),
    ("honeycomb-torus", 3)])
@pytest.mark.parametrize("flag", ["--x", "--theta", "--J"])
def test_gen_takes_one_or_all_distinct_weights(capsys, fixture, n, flag):
    beta = ["--beta", "0.5"] if flag == "--J" else []
    for count in (1, n):
        code, _ = run(capsys, "gen", fixture, flag, *["0.3"] * count, *beta)
        assert code == 0
    # other counts used to be cut to the first values silently, or to fail
    # without naming the flag
    for count in {2, 3, 4, 8} - {n}:
        code, out = run(capsys, "gen", fixture, flag, *["0.3"] * count, *beta)
        assert code == 2
        assert json.loads(out) == {
            "error": "invalid_input",
            "message": f"{flag} takes 1 or {n} values for {fixture}, "
                       f"got {count}"}


def test_gen_beta_requires_couplings(capsys):
    # --beta without --J used to print the x form with no beta field
    code = main(["gen", "rect-torus", "--x", "0.3", "0.4", "--beta", "0.5"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": "invalid_input",
                               "message": "--beta requires --J"}


@pytest.mark.parametrize("x", ["1.0", "0.0"])
def test_free_energy_beta_needs_weights_in_the_open_interval(tmp_path,
                                                             capsys, x):
    # couplings arctanh(x) are inferred from the weights; x = 1 used to print
    # Infinity with exit 0 and a RuntimeWarning
    _, out = run(capsys, "gen", "rect-torus", "--x", x, "0.4")
    path = tmp_path / "r.json"
    path.write_text(out)
    code = main(["free-energy", "-g", str(path), "--beta", "0.5"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert _no_constants(out) == {
        "error": "invalid_input",
        "message": "weights must be in (0,1) to infer couplings"}


def test_gen_weight_lists_keep_their_order(capsys):
    # the first value is horizontal, the second vertical
    _, out = run(capsys, "gen", "rect-torus", "--x", "0.1", "0.2")
    assert [e["x"] for e in json.loads(out)["edges"]] == [0.1, 0.2]
    _, out = run(capsys, "gen", "square-torus", "2", "--J", "0.5", "1",
                 "--beta", "1")
    assert [e["J"] for e in json.loads(out)["edges"]] == [0.5, 1.0] * 4


def test_repeated_main_calls_repeat_their_output(tmp_path, capsys):
    _, out = run(capsys, "gen", "square-torus", "2", "--J", "1",
                 "--beta", "0.5")
    (tmp_path / "j.json").write_text(out)
    _, out = run(capsys, "gen", "square-torus", "2")
    (tmp_path / "c.json").write_text(out)
    j, c = str(tmp_path / "j.json"), str(tmp_path / "c.json")
    commands = [
        ["gen", "honeycomb-torus", "--x", "0.2", "0.3", "0.4"],
        ["verify", "det", "-g", j, "--draws", "2", "--seed", "3"],
        ["z-ising", "-g", j, "--beta", "0.4"], ["z-dimer", "-g", c],
        ["tau", "-g", c], ["spectral", "-g", j, "--grid", "4"],
        ["observable", "-g", j, "--dart", "3"], ["critical-beta", "-g", j],
        ["free-energy", "-g", j, "--grid", "4"],
        ["h-function", "-g", c, "--from", "kernel"],
        ["tau", "-g", j],  # exit 2: off criticality
    ]
    first = [run(capsys, *argv) for argv in commands]
    assert [code for code, _ in first] == [0] * 10 + [2]
    assert [run(capsys, *argv) for argv in commands] == first
    # a parse error exits 2 through argparse and leaves the parser usable
    for bad in (["no-such-command"], ["tau"], ["gen", "square-torus", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *commands[4]) == first[4]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    import argparse

    from kwlab.cli import build_parser

    inits = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        inits.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    run(capsys, "gen", "rect-torus")
    one_build = len(inits)
    assert one_build > 10  # the parser and its ten subcommand parsers
    for _ in range(19):
        run(capsys, "gen", "rect-torus")
    assert len(inits) == one_build
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", [["z-dimer"], ["verify", "all"],
                                     ["spectral", "--grid", "4"]])
@pytest.mark.parametrize("field, value, message", [
    ("v", 10 ** 20, "edge endpoints must be vertex ids 0..V-1"),
    ("shift", [0, 10 ** 20], "edge shifts must not exceed 2^53 in size")],
    ids=["endpoint", "shift"])
def test_integers_beyond_int64_are_invalid_input(tmp_path, capsys, command,
                                                 field, value, message):
    # both used to end in an OverflowError traceback with exit 1
    obj = fx.rect_torus().to_json()
    obj["edges"][1][field] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code = main([*command, "-g", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == "invalid_input"
    assert message in json.loads(out)["message"]


@pytest.mark.parametrize("suite", ["kw1", "kw2", "all"])
@pytest.mark.parametrize("entry", [1e308, -1e308])
def test_displacements_near_the_float_range_are_invalid_input(
        tmp_path, capsys, suite, entry):
    # the graph used to build with face centroids that overflow, and the
    # dual took NaN shifts: exit 1 or 2 with RuntimeWarnings, or a pass of
    # verify all without its duality suites
    obj = fx.rect_torus().to_json()
    obj["lattice"][0][0] = entry
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", suite, "-g", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": "invalid_input",
        "message": "edge displacements exceed the float range"}


def test_verify_all_builds_the_dual_once(tmp_path, capsys, monkeypatch):
    from kwlab import critical, surface_graph as sg

    built, dual = [], sg.dual

    def counted(g):
        built.append(g)
        return dual(g)

    # every binding of the builder, where a module imports it by name
    monkeypatch.setattr(sg, "dual", counted)
    monkeypatch.setattr(critical, "dual", counted, raising=False)
    code, out = run(capsys, "gen", "square-torus", "2", "--x", "0.3")
    path = tmp_path / "s.json"
    path.write_text(out)
    code, out = run(capsys, "verify", "all", "-g", str(path), "--draws", "2")
    assert code == 0
    assert len(built) == 1
