"""The two seeded workloads: README command lines, their fixtures and checks.

A workload is a list of ``kwlab`` command lines, each reading one generated
fixture JSON on stdin.  Everything the seed changes (couplings, temperatures,
off-critical weights, pinned darts, suite seeds) is drawn here, so the
program only ever sees the generated JSON and the command-line arguments.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import references as ref

#: end-to-end metric of each command; ``tau`` counts only in ``pass_s``.
COMMAND_METRICS = {
    "critical-beta": "critical_beta_s",
    "free-energy": "free_energy_s",
    "spectral": "spectral_s",
    "observable": "observable_s",
    "h-function": "h_function_s",
    "verify": "verify_s",
    "z-ising": "z_ising_s",
    "z-dimer": "z_dimer_s",
}

K_CRITICAL_SQUARE = math.atanh(math.sqrt(2.0) - 1.0)  # the gen default x


@dataclass(frozen=True)
class Command:
    """One command line; ``check(out, graphs)`` returns ``(ok, residual)``.

    ``self_verdict`` marks commands whose check is the program's own
    ``pass`` field rather than an independent reference.  ``known_failure``
    marks the one command whose failed check is a known defect: it counts as
    a failed command but leaves the run correct.
    """

    argv: tuple
    fixture: str
    check: Callable
    self_verdict: bool = False
    known_failure: bool = False

    @property
    def metric(self):
        return COMMAND_METRICS.get(self.argv[0])

    def full_argv(self):
        return [*self.argv, "-g", "-"]

    def label(self):
        return " ".join(self.argv) + " < " + self.fixture


@dataclass
class Workload:
    name: str
    #: fixture name -> ``kwlab gen`` arguments, or ``("square_patch", m, n)``
    fixtures: dict
    commands: list = field(default_factory=list)

    def add(self, fixture, *argv, check, self_verdict=False,
            known_failure=False):
        self.commands.append(Command(tuple(str(a) for a in argv), fixture,
                                     check, self_verdict, known_failure))

    def verified(self, fixture, *argv, known_failure=False):
        """A command that certifies itself (verify, z-ising, z-dimer)."""
        self.add(fixture, *argv, check=_pass_field, self_verdict=True,
                 known_failure=known_failure)

    def interleave(self):
        """Spread each command's invocations evenly over the pass.

        The machine runs slow for seconds at a time, so invocations that sit
        together in the pass are slowed together; spread out, each metric
        samples several moments of every pass.
        """
        counts = Counter(cmd.argv[0] for cmd in self.commands)
        seen = Counter()
        keys = []
        for i, cmd in enumerate(self.commands):
            keys.append(((seen[cmd.argv[0]] + 0.5) / counts[cmd.argv[0]], i))
            seen[cmd.argv[0]] += 1
        self.commands = [cmd for _, cmd in sorted(zip(keys, self.commands))]
        return self


def _pass_field(out, graphs):
    return ref.check_pass_field(out)


def _observable(dart, out, graphs, fixture):
    return ref.check_observable(out, graphs[fixture], dart)


def _free_energy_8(k, out, graphs):
    return ref.check_free_energy(out, k, k, 8, 1)


def _draw(rng, lo, hi):
    """A seeded value, rounded to the decimal string the CLI receives."""
    return float(f"{rng.uniform(lo, hi):.6f}")


def criticality(seed):
    """Thousands of small determinants: bisection chains and grid points."""
    rng = random.Random(seed)
    rect_j = (_draw(rng, 0.6, 1.4), _draw(rng, 0.6, 1.4))
    hex_j = tuple(_draw(rng, 0.6, 1.4) for _ in range(3))
    sq_j = (_draw(rng, 0.6, 1.4), _draw(rng, 0.6, 1.4))
    b_rect, b_sq, b_z = (_draw(rng, 0.3, 0.6) for _ in range(3))
    x_off = _draw(rng, 0.2, 0.35)
    darts = rng.sample(range(16), 8)
    gen_beta = 0.5  # coupling form needs a stored beta; the commands sweep it
    w = Workload("criticality", {
        "rect_J": ["rect-torus", "--J", *rect_j, "--beta", gen_beta],
        "honeycomb_J": ["honeycomb-torus", "--J", *hex_j, "--beta", gen_beta],
        "square2_J": ["square-torus", "2", "--J", *sq_j, "--beta", gen_beta],
        "square1": ["square-torus", "1"],
        "square2": ["square-torus", "2"],
        "square3": ["square-torus", "3"],
        "square4": ["square-torus", "4"],
        "square2_off": ["square-torus", "2", "--x", x_off],
    })
    w.add("rect_J", "critical-beta",
          check=lambda out, g: ref.check_square_critical(out, *rect_j))
    w.add("honeycomb_J", "critical-beta",
          check=lambda out, g: ref.check_honeycomb_critical(out, *hex_j))
    w.add("square2_J", "critical-beta",
          check=lambda out, g: ref.check_square_critical(out, *sq_j))
    w.add("square1", "tau", check=lambda out, g: ref.check_tau_is_i(out))
    w.add("square2", "tau", check=lambda out, g: ref.check_tau_is_i(out))
    w.add("rect_J", "free-energy", "--beta", b_rect, "--grid", 16,
          check=lambda out, g: ref.check_free_energy(
              out, b_rect * rect_j[0], b_rect * rect_j[1], 1, 16))
    w.add("square2_J", "free-energy", "--beta", b_sq, "--grid", 16,
          check=lambda out, g: ref.check_free_energy(
              out, b_sq * sq_j[0], b_sq * sq_j[1], 2, 16))
    w.add("square2_J", "spectral", "--grid", 16,
          check=lambda out, g: ref.check_spectral(
              out, gen_beta * sq_j[0], gen_beta * sq_j[1], 2, 16))
    # two more grids lower the sampling noise of the pooled spectral_s
    for _ in range(2):
        w.add("square2", "spectral", "--grid", 16,
              check=lambda out, g: ref.check_spectral(
                  out, K_CRITICAL_SQUARE, K_CRITICAL_SQUARE, 2, 16))
    # small instances of every other command, so each end-to-end metric
    # exists on every workload; together they are about 25% of a pass.
    # A metric's median over passes is only as steady as its per-pass sum,
    # so each short command runs on several darts and fixtures, or several
    # times, until the sum covers ten or more calls or about 0.2 s.
    for dart in darts * 2:
        w.add("square2_off", "observable", "--dart", dart,
              check=partial(_observable, dart, fixture="square2_off"))
    for fx in ("square1", "square2", "square3", "square4") * 5:
        w.add(fx, "h-function", "--from", "kernel",
              check=lambda out, g: ref.check_h_function(out))
    for _ in range(2):
        w.verified("rect_J", "verify", "kw1", "--seed", seed)
        w.verified("honeycomb_J", "verify", "kw1", "--seed", seed)
        w.verified("rect_J", "verify", "kw2", "--seed", seed)
    for fx in ("rect_J", "honeycomb_J", "square1") * 4:
        w.verified(fx, "z-ising", "--beta", b_z)
    for fx in ("rect_J", "honeycomb_J", "square1") * 10:
        w.verified(fx, "z-dimer")
    return w.interleave()


def large_torus(seed):
    """A few dense operators of 256 to 576 darts."""
    rng = random.Random(seed)
    x8 = _draw(rng, 0.2, 0.35)
    dart = rng.randrange(256)
    b_fe = (_draw(rng, 0.3, 0.6), _draw(rng, 0.3, 0.6))
    b_z = _draw(rng, 0.3, 0.6)
    rect_j = (_draw(rng, 0.6, 1.4), _draw(rng, 0.6, 1.4))
    hex_j = tuple(_draw(rng, 0.6, 1.4) for _ in range(3))
    k8 = math.atanh(x8)
    w = Workload("large_torus", {
        "square8": ["square-torus", "8", "--x", x8],
        "square12": ["square-torus", "12"],
        "rect_J": ["rect-torus", "--J", *rect_j, "--beta", 0.5],
        "honeycomb_J": ["honeycomb-torus", "--J", *hex_j, "--beta", 0.5],
        "triangle": ["triangle"],
        "patch": ("square_patch", 2, 2),
        "square2": ["square-torus", "2"],
    })
    w.add("square8", "observable", "--dart", dart,
          check=partial(_observable, dart, fixture="square8"))
    w.verified("square12", "verify", "corr", "--draws", 1, "--seed", seed)
    w.verified("square12", "verify", "dirac")
    # every verification suite, so the oracle enumerations, loop resolution
    # and inverse behind them are timed.  The critical square2 run exits 1
    # today (the inv suite at det KW = 0, a known defect); it is counted as
    # a failed command, not left out.
    for fx in ("triangle", "patch", "square2"):
        w.verified(fx, "verify", "all", "--seed", seed,
                   known_failure=fx == "square2")
    # h-function, the last main command, runs alongside small instances of
    # every other command: the grid commands on the large tori (one spectral
    # point is one 576-dart determinant, run as the single row of a
    # spectral_grid pool), the commands whose oracles cannot take a large
    # torus on the 1x1 and honeycomb ones.  Only five or six passes fit in a
    # run, so each of these metrics gets at least two calls per pass, and the
    # short ones more.
    for b in b_fe:
        w.add("square12", "h-function", "--from", "kernel",
              check=lambda out, g: ref.check_h_function(out))
        w.add("square12", "spectral", "--grid", 1,
              check=lambda out, g: ref.check_spectral(
                  out, K_CRITICAL_SQUARE, K_CRITICAL_SQUARE, 12, 1))
        w.add("square8", "free-energy", "--beta", b, "--grid", 1,
              check=partial(_free_energy_8, b * k8))
    for _ in range(2):
        w.add("rect_J", "critical-beta",
              check=lambda out, g: ref.check_square_critical(out, *rect_j))
        w.add("honeycomb_J", "critical-beta",
              check=lambda out, g: ref.check_honeycomb_critical(out, *hex_j))
    for fx in ("rect_J", "honeycomb_J") * 4:
        w.verified(fx, "z-ising", "--beta", b_z)
    for fx in ("rect_J", "honeycomb_J") * 16:
        w.verified(fx, "z-dimer")
    return w.interleave()


WORKLOADS = {
    "criticality": criticality,
    "large_torus": large_torus,
}
