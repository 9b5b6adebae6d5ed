"""``report.render`` (one ``json.dumps`` with a default hook) against the
two-pass renderer it replaced (``tests/report_reference.py``): the same
bytes on random nested outputs and on what every command prints, whose
dicts all have str keys (the hook, unlike ``jsonable``, leaves keys alone).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from report_reference import render_reference
from kwlab import cli, fixtures as fx
from kwlab.report import render

EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7,
               0.1, 1 / 3]

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
complexes = st.builds(complex, floats, floats)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, complexes,
    st.text(max_size=5),
    st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    floats.map(np.float64),
    complexes.map(np.complex128),
)

arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.complex128]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
    elements={"allow_nan": True, "allow_infinity": True})

outputs = st.recursive(
    scalars | arrays,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=5), kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(outputs)
def test_render_is_the_two_pass_renderer(obj):
    assert render(obj) == render_reference(obj)


@pytest.mark.parametrize("obj", [
    {"z": 1 + 2j, "a": np.array([[1 - 1j, 0j]]), "k": np.int64(3),
     "b": np.bool_(False), "f": np.float32(0.1), "nan": np.float64("nan")},
    [np.complex64(-0.0 + 1j), (np.float64(-0.0), np.arange(3))],
    {"other": {1, 2}, "none": None},
], ids=["dict", "list", "str-fallback"])
def test_render_named_cases(obj):
    assert render(obj) == render_reference(obj)


def _keys_are_str(obj):
    if isinstance(obj, dict):
        return all(type(k) is str and _keys_are_str(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(_keys_are_str(v) for v in obj)
    return True


def test_every_command_prints_str_keys_as_the_reference(tmp_path, monkeypatch,
                                                         capsys):
    printed = []

    def spy(obj):
        printed.append(obj)
        return render(obj)

    monkeypatch.setattr(cli, "render", spy)
    paths = {}
    for name, argv in {"tri": ["triangle", "--x", "0.5"],
                       "rect": ["rect-torus", "--J", "1.0", "--beta", "0.5"],
                       "hex": ["honeycomb-torus"],
                       "sq2": ["square-torus", "2"],
                       "sq4": ["square-torus", "4", "--x", "0.4"]}.items():
        assert cli.main(["gen", *argv]) == 0
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(capsys.readouterr().out)
    patch = tmp_path / "patch.json"
    patch.write_text(render(fx.square_patch(2, 2).to_json()))
    tri, rect, hex_, sq2, sq4 = map(str, paths.values())
    commands = [
        (["verify", "all", "-g", sq2, "--draws", "2"], 0),
        (["verify", "all", "-g", str(patch), "--draws", "2"], 0),
        (["verify", "all", "-g", tri, "--draws", "2"], 0),
        (["z-ising", "-g", rect, "--beta", "0.4"], 0),
        (["z-dimer", "-g", rect], 0),
        (["observable", "-g", hex_, "--dart", "3"], 0),
        (["spectral", "-g", rect, "--grid", "3"], 0),
        (["critical-beta", "-g", rect], 0),
        (["tau", "-g", sq2], 0),
        (["free-energy", "-g", rect, "--grid", "4", "--beta", "0.4"], 0),
        (["h-function", "-g", sq2, "--from", "kernel"], 0),
        (["h-function", "-g", tri, "--from", "observable", "--dart", "0"],
         0),
        (["tau", "-g", rect], 2),
        (["verify", "inv", "-g", sq4], 3),
    ]
    for argv, code in commands:
        assert cli.main(argv) == code, argv
    assert len(printed) == 5 + len(commands)
    for obj in printed:
        assert _keys_are_str(obj)
        assert render(obj) == render_reference(obj)
