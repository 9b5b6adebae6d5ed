"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import references  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = bench.import_program()


def small_workload():
    """One cheap instance of every benchmarked command."""
    kx, ky = 0.3095196042031118, 0.42364893019360184  # atanh(0.3), atanh(0.4)
    w = workloads.Workload("small", {
        "rect": ["rect-torus"],
        "square1": ["square-torus", "1"],
        "square2_off": ["square-torus", "2", "--x", "0.3"],
        "triangle": ["triangle"],
    })
    w.add("rect", "free-energy", "--grid", 2,
          check=lambda out, g: references.check_free_energy(out, kx, ky, 1, 2))
    w.add("rect", "spectral", "--grid", 4,
          check=lambda out, g: references.check_spectral(out, kx, ky, 1, 4))
    w.add("square1", "tau", check=lambda out, g: references.check_tau_is_i(out))
    w.add("square1", "h-function", "--from", "kernel",
          check=lambda out, g: references.check_h_function(out))
    w.add("square2_off", "observable", "--dart", 5,
          check=lambda out, g: references.check_observable(
              out, g["square2_off"], 5))
    w.verified("triangle", "verify", "all", "--seed", 4)
    w.verified("rect", "verify", "kw1", "--draws", 2)
    w.verified("rect", "z-ising", "--beta", 0.4)
    w.verified("triangle", "z-dimer")
    return w


@pytest.fixture(scope="module")
def small():
    w = small_workload()
    texts, graphs = bench.make_fixtures(CLI, w)
    return w, texts, graphs


def kwlab_bindings():
    return {(name, key): val for name, mod in sys.modules.items()
            if name == "kwlab" or name.startswith("kwlab.")
            for key, val in vars(mod).items()}


def plain_call(monkeypatch, capsys, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc = CLI.main(list(argv))
    return rc, capsys.readouterr().out


def test_untraced_output_matches_plain_cli(small, monkeypatch, capsys):
    w, texts, graphs = small
    _, results = bench.run_pass(CLI, w, texts)
    for cmd, (rc, out, secs) in zip(w.commands, results):
        assert (rc, out) == plain_call(monkeypatch, capsys, cmd.full_argv(),
                                       texts[cmd.fixture]), cmd.label()
        assert secs > 0
    checker = bench.Checker(w, graphs)
    checker.observe(results)
    assert checker.correct and checker.failed == 0, checker.notes
    assert checker.attempted == len(w.commands)


def test_tracer_restores_every_binding_and_keeps_output(small):
    w, texts, _ = small
    before = kwlab_bindings()
    import kwlab.linalg
    import kwlab.operators

    with tracing.Tracer() as tracer:
        # the same function is wrapped under each module that binds it
        assert kwlab.linalg.lu_det is not before[("kwlab.linalg", "lu_det")]
        assert kwlab.operators.lu_det is kwlab.linalg.lu_det
        _, traced = bench.run_pass(CLI, w, texts, tracer)
    assert kwlab_bindings() == before
    _, plain = bench.run_pass(CLI, w, texts)
    assert [r[:2] for r in traced] == [r[:2] for r in plain]

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("inside the traced block")
    assert kwlab_bindings() == before


def test_counters_repeat_exactly(small):
    w, texts, _ = small
    runs = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            bench.run_pass(CLI, w, texts, tracer)
        runs.append(tracing.pass_metrics(tracer.spans, workers=1))
    first, second = ({k: m[k] for k in tracing.COUNTERS} for m in runs)
    assert first == second
    assert first["linalg.det.calls"] > 0 and first["oracle.enumerate.items"] > 0
    assert first["critical.spectral_grid.points"] == 4 * 4 + 2 * 2 + 4 * 4
    assert runs[0]["cli.self_s"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = set(tracing.pass_metrics([], workers=1))
    assert {m["name"] for m in spec["per_layer"]} == layer | {
        "trace.overhead_ratio", "failed_ratio"}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "pass_s", "peak_rss_mb",
        *workloads.COMMAND_METRICS.values()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "cli", 0.0, 10.0, 0),
        (2, 1, "critical.spectral_grid", 1.0, 7.0, 4),
        # two worker threads overlap inside the grid span
        (3, 2, "critical.spectral_curve", 2.0, 5.0, 0),
        (4, 2, "critical.spectral_curve", 4.0, 6.0, 0),
        (5, 1, "linalg.det", 8.0, 9.0, 3),
    ]
    m = tracing.pass_metrics(spans, workers=2)
    assert m["cli.self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert m["critical.spectral_grid.self_s"] == pytest.approx(6.0 - 4.0)
    assert m["critical.spectral_grid.busy_ratio"] == pytest.approx(5.0 / 12.0)
    assert m["linalg.det.work_n3"] == 27 and m["linalg.det.n_max"] == 3


def test_generator_spans_count_items():
    def gen(n):
        yield from range(n)

    tracer = tracing.Tracer()
    wrapped = tracer._wrap("oracle.enumerate", gen)
    assert list(tracer.call("cli", lambda: list(wrapped(3)))) == [0, 1, 2]
    m = tracing.pass_metrics(tracer.spans, workers=1)
    assert m["oracle.enumerate.items"] == 3
    assert sum(1 for s in tracer.spans if s[2] == "oracle.enumerate") == 4


def test_failed_checks_and_verdicts_mark_the_run_incorrect():
    w = workloads.Workload("fake", {})
    w.verified("f", "verify", "all")
    w.add("f", "tau", check=lambda out, g: (out["ok"], 1.0))
    verdict = json.dumps({"pass": False, "ok": True})
    checker = bench.Checker(w, {})
    checker.observe([(1, verdict, 0.1), (0, verdict, 0.1)])
    assert not checker.correct and checker.failed == 1
    checker.observe([(1, verdict, 0.1), (0, json.dumps({"ok": False}), 0.1)])
    assert checker.failed == 3


def test_only_the_known_failure_leaves_the_run_correct():
    w = workloads.Workload("fake", {})
    w.verified("f", "verify", "all", known_failure=True)
    w.verified("f", "verify", "corr")
    failed = json.dumps({"pass": False})
    checker = bench.Checker(w, {})
    checker.observe([(1, failed, 0.1), (0, json.dumps({"pass": True}), 0.1)])
    assert checker.correct and checker.failed == 1
    checker.observe([(1, failed, 0.1), (1, failed, 0.1)])
    assert not checker.correct and checker.failed == 3
    known = [c for c in workloads.large_torus(1).commands if c.known_failure]
    assert [c.label() for c in known] == ["verify all --seed 1 < square2"]


def test_workloads_are_seeded():
    for make in workloads.WORKLOADS.values():
        a, b, c = make(1), make(1), make(2)
        assert [x.label() for x in a.commands] == [x.label() for x in b.commands]
        assert a.fixtures == b.fixtures
        assert ([x.label() for x in a.commands] != [x.label() for x in c.commands]
                or a.fixtures != c.fixtures)
        metrics = {x.metric for x in a.commands} - {None}
        assert metrics == set(workloads.COMMAND_METRICS.values())


def test_interleave_spreads_each_command_over_the_pass():
    w = workloads.Workload("fake", {})
    for argv in ("verify", "verify", "tau", "z-dimer", "z-dimer"):
        w.verified("f", argv)
    order = [c.argv[0] for c in w.interleave().commands]
    assert order == ["verify", "z-dimer", "tau", "verify", "z-dimer"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "criticality",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_crashing_command_is_a_failed_command():
    class Crashing:
        @staticmethod
        def main(argv):
            raise ValueError("no traceback should end the run")

    rc, out = bench.call_cli(Crashing, ["tau", "-g", "-"], "{}")
    assert (rc, out) == (-1, "")
    w = workloads.Workload("fake", {})
    w.add("f", "tau", check=lambda out, g: references.check_tau_is_i(out))
    checker = bench.Checker(w, {})
    checker.observe([(rc, out, 0.1)])
    assert not checker.correct and checker.failed == 1
