"""kwlab benchmark: seeded workloads of README command lines, run in-process.

    python3 perfbench/run.py --workload criticality --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass runs the workload's command list through
``kwlab.cli.main(argv)`` with the fixture JSON on stdin and stdout captured.
Set-up (a fresh interpreter importing ``kwlab.cli``, plus generating and
parsing the fixtures) is timed once before each pass.  Passes repeat while
the next one is expected to end within ``--seconds``.  Each command's time
is its median over the passes, a metric sums the medians of its commands,
and set-up is the median of its repeats.
Every command's output is checked against an independent reference outside
the timed interval, and every pass must print the same bytes.

With ``--trace 1`` untraced passes alternate with passes under the span
tracer, and the per-layer metrics are reported instead.
A detail record (environment, per-pass times, failures) is printed before
the final line, which is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
THREAD_ENV = ("KWLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")


def import_program():
    """Import kwlab from this checkout's src/, or None if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "kwlab", "cli.py")):
        return None
    sys.path.insert(0, SRC)
    import kwlab.cli
    if not os.path.abspath(kwlab.cli.__file__).startswith(SRC + os.sep):
        return None
    return kwlab.cli


def call_cli(cli, argv, stdin_text):
    """Run ``kwlab.cli.main(argv)`` on the given stdin; return (rc, stdout).

    A command that raises is reported with exit code -1, so that the run
    goes on and the checker counts it as failed.
    """
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        rc = -1
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue()


def make_fixtures(cli, workload):
    """Generate each fixture's JSON (``kwlab gen``) and parse it."""
    from kwlab import fixtures as kfix
    from kwlab.surface_graph import graph_from_json

    texts, graphs = {}, {}
    for name, spec in workload.fixtures.items():
        if spec[0] == "square_patch":
            text = json.dumps(kfix.square_patch(*spec[1:]).to_json())
        else:
            rc, text = call_cli(cli, ["gen", *map(str, spec)], "")
            if rc != 0:
                raise RuntimeError(f"kwlab gen {spec} exited {rc}")
        texts[name] = text
        graphs[name] = graph_from_json(json.loads(text))
    return texts, graphs


def measure_setup(cli, workload):
    """One timed set-up: a fresh ``import kwlab.cli`` plus the fixtures.

    Returns ``(seconds, texts, graphs)``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import kwlab.cli"], cwd=ROOT,
                   env=env, check=True)
    texts, graphs = make_fixtures(cli, workload)
    return time.perf_counter() - t0, texts, graphs


def run_pass(cli, workload, texts, tracer=None):
    """One pass over the command list: (pass wall time, [(rc, out, secs)])."""
    results = []
    start = time.perf_counter()
    for cmd in workload.commands:
        argv, stdin_text = cmd.full_argv(), texts[cmd.fixture]
        # each command starts from a collected heap, as in a fresh process
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            rc, out = call_cli(cli, argv, stdin_text)
        else:
            rc, out = tracer.call(tracing.ROOT, call_cli,
                                  (cli, argv, stdin_text))
        results.append((rc, out, time.perf_counter() - t0))
    return time.perf_counter() - start, results


def run_passes(cli, workload, texts, seconds, before=None, alternate=False):
    """At least one pass, then more while the next one should end in time.

    ``before``, if given, is called ahead of each pass, outside its timing.
    With ``alternate`` every second pass runs under the tracer, so that
    traced and untraced passes sample the same spells of the machine.
    Returns ``[(wall, results, spans)]``; ``spans`` is None when untraced.
    """
    passes, rounds = [], []
    t_end = time.perf_counter() + seconds
    least = 2 if alternate else 1
    while (len(passes) < least
           or time.perf_counter() + statistics.median(rounds) <= t_end):
        t0 = time.perf_counter()
        if before is not None:
            before()
        if alternate and len(passes) % 2:
            with tracing.Tracer() as tracer:
                wall, results = run_pass(cli, workload, texts, tracer)
            passes.append((wall, results, tracer.spans))
        else:
            passes.append((*run_pass(cli, workload, texts), None))
        rounds.append(time.perf_counter() - t0)
    return passes


class Checker:
    """Checks outputs against references, once per distinct output."""

    def __init__(self, workload, graphs):
        self.workload = workload
        self.graphs = graphs
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._first = {}
        self._verdicts = {}

    def observe(self, results):
        for i, (cmd, (rc, out, _)) in enumerate(zip(self.workload.commands,
                                                     results)):
            self.attempted += 1
            first = self._first.setdefault(i, out)
            if out != first:
                self._note(cmd, "output differs from the first pass", True)
            key = (i, rc, out)
            if key not in self._verdicts:
                self._verdicts[key] = self._judge(cmd, rc, out)
            if not self._verdicts[key]:
                self.failed += 1

    def _note(self, cmd, msg, incorrect):
        if incorrect:
            self.correct = False
        entry = {"command": cmd.label(), "problem": msg}
        if entry not in self.notes:
            self.notes.append(entry)

    def _judge(self, cmd, rc, out):
        """True if the command passed; records why not."""
        try:
            obj = json.loads(out)
            ok, residual = cmd.check(obj, self.graphs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self._note(cmd, f"exit {rc}, unreadable output: {exc!r}", True)
            return False
        # an exit code must agree with the verdict it prints
        if rc != (0 if (ok or not cmd.self_verdict) else 1):
            self._note(cmd, f"exit {rc} disagrees with its output", True)
            return False
        if not ok:
            # only a failure the workload declares known leaves the run
            # correct; it still counts as a failed command
            self._note(cmd, f"check failed, residual {residual:.3g}",
                       not cmd.known_failure)
            return False
        return True


def environment():
    blas = {}
    with contextlib.suppress(TypeError, KeyError, AttributeError):
        cfg = np.show_config(mode="dicts")
        blas = {k: "{name} {version}".format(**cfg["Build Dependencies"][k])
                for k in ("blas", "lapack")}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def command_medians(workload, passes):
    """Each command's median time over the passes, summed per metric.

    ``pass_s`` sums the medians of every command, ``tau`` included.
    """
    sums = {"pass_s": 0.0}
    for i, cmd in enumerate(workload.commands):
        secs = statistics.median(results[i][2] for _, results, _ in passes)
        sums["pass_s"] += secs
        if cmd.metric:
            sums[cmd.metric] = sums.get(cmd.metric, 0.0) + secs
    return sums


def end_to_end(workload, setup_times, passes):
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    medians = command_medians(workload, passes)
    out = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "pass_s": metric(medians.pop("pass_s"), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    for name in sorted(medians):
        out[name] = metric(medians[name], "s")
    return out


def per_layer(workload, plain, traced, checker):
    from kwlab import critical

    # the spectral_grid pool size; a version without the pool runs serially
    workers = getattr(critical, "worker_count", lambda: 1)()
    per_pass = [tracing.pass_metrics(spans, workers) for *_, spans in traced]
    for later in per_pass[1:]:
        for key in tracing.COUNTERS:
            if later[key] != per_pass[0][key]:
                checker.correct = False
                checker.notes.append({"counter": key, "problem":
                                      "differs between traced passes"})
    values = tracing.median_metrics(per_pass)
    values["trace.overhead_ratio"] = (
        command_medians(workload, traced)["pass_s"]
        / command_medians(workload, plain)["pass_s"])
    values["failed_ratio"] = checker.failed / checker.attempted
    return {name: metric(values[name], unit)
            for name, unit in tracing.per_layer_units().items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_program()
    if cli is None:
        print(f"perfbench: no kwlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    setup_times = []

    def set_up():
        secs, *fixtures = measure_setup(cli, workload)
        setup_times.append(secs)
        return fixtures

    texts, graphs = set_up()
    checker = Checker(workload, graphs)
    if args.trace:
        passes = run_passes(cli, workload, texts, args.seconds, alternate=True)
        plain = [p for p in passes if p[2] is None]
        traced = [p for p in passes if p[2] is not None]
    else:
        passes = run_passes(cli, workload, texts, args.seconds, before=set_up)
        while len(setup_times) < SETUP_REPEATS:
            set_up()
    for _, results, _ in passes:
        checker.observe(results)
    if args.trace:
        metrics = per_layer(workload, plain, traced, checker)
        n_passes = {"untraced": len(plain), "traced": len(traced)}
    else:
        metrics = end_to_end(workload, setup_times, passes)
        n_passes = len(passes)

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": n_passes,
        "pass_s": [wall for wall, *_ in passes],
        "setup_s": setup_times,
        "commands": [c.label() for c in workload.commands],
        "problems": checker.notes,
        "environment": environment(),
    }
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": checker.correct,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
