"""A seeded property test over the ``lef`` command line.

Small valid inputs for ``lef flow``, ``pipeline``, ``spectrum`` and
``radial`` are mutated one key or argument at a time: wrong types, values
out of range or beyond the float range, missing and extra keys, sections
that are not objects and paths that are not strings.  Every run must end
in exit 0, 2, 3 or 4, never in a traceback, and exits 2 and 3 print
exactly one stderr line.  In the first tier the shot kernel and the flow
are stubbed: a run that gets past its inputs stops at its first shot or
flow step.  The second tier runs the same cases with no stubs, doing the
real work on their tiny grids.
"""
import copy
import json
import random

import numpy as np
import pytest

from lef import cli, flow, geometry, radial


class Reached(Exception):
    """The run accepted its inputs and started work."""


def _stop(*args, **kwargs):
    raise Reached


_POLAR = {"type": "polar", "n_r": 16, "n_theta": 8}
_CARTESIAN = {"type": "cartesian", "n": 16}
_CONFIGS = {
    "flow-polar": {"p": 5.0, "alpha": 0.25, "grid": _POLAR,
                   "domain": {"type": "disk", "radius": 1.0},
                   "group": {"kind": "cyclic", "order": 4},
                   "initial": {"type": "ball", "scale": 0.5},
                   "flow": {"t_max": 1.0}},
    "flow-cartesian": {"p": 5.0, "grid": _CARTESIAN,
                       "domain": {"type": "squircle", "radius": 1.0,
                                  "power": 4.0},
                       "group": {"kind": "dihedral", "order": 4,
                                 "axis_angle": 0.0},
                       "initial": {"type": "annulus", "a": 0.3, "b": 1.0,
                                   "scale": 0.5}},
    "pipeline-polar": {"p": 8.0, "alpha": "optimal", "grid": _POLAR,
                       "domain": {"type": "annulus", "a": 0.2, "b": 1.0},
                       "group": {"kind": "cyclic", "order": 4},
                       "flow": {"t_max": 1.0, "decay_factor": 0.5,
                                "record_nodal_every": 0},
                       "scan": {"ratios": [0.5, 1.0]}},
    "pipeline-cartesian": {"p": 8.0, "alpha": 0.25, "grid": _CARTESIAN,
                           "domain": {"type": "disk"},
                           "group": {"kind": "dihedral", "order": 4}},
}

# JSON values of every kind, and numbers out of every range
_WRONG = [True, False, None, "x", "5", "", [], [1], {}, {"a": 1}]
_NUMBERS = [0, -1, 0.5, 1, 2.5, 3, 6, 1e-300, 1e300, -1e300, 1e400, -1e400,
            float("nan"), 10 ** 400, -10 ** 400, 2 ** 63]
# grid sizes stay small: no mutation may allocate a large grid
_SIZES = [0, -1, 1, 2, 3, 4, 6, 2.5, 1e400, float("nan"), 16.0]
_SIZE_KEYS = {"n", "n_r", "n_theta"}
_TEXT = ["abc", "", "1", "1.0", "-1", "0", "nan", "inf", "1e400", "true",
         "[8]", "1" * 400, "0.5", "8", "1000", "1e-300", " 8 "]


_DELETE = object()


def _values(key):
    return _WRONG + (_SIZES if key in _SIZE_KEYS else _NUMBERS)


def _mutations(doc, rng, tries=3):
    """One-change mutations of a JSON object and its sections: every key
    removed, and replaced by ``tries`` values drawn from ``_values``, and
    every section given an extra key."""
    out = []
    for sec, body in [(None, doc)] + [(sec, body) for sec, body in doc.items()
                                      if isinstance(body, dict)]:
        changes = [("zz", 1)] + [(key, value) for key in body
                                 for value in [_DELETE]
                                 + rng.sample(_values(key), tries)]
        for key, value in changes:
            mutated = copy.deepcopy(doc)
            target = mutated if sec is None else mutated[sec]
            if value is _DELETE:
                del target[key]
            else:
                target[key] = value
            out.append(mutated)
    return out


def _cases():
    rng = random.Random(20261018)
    cases = []
    for name, base in _CONFIGS.items():
        command = name.split("-")[0]
        cases.append((command, None, base))
        cases += [(command, None, doc) for doc in _mutations(base, rng)]
        # every section replaced by a non-object, every path by a non-string
        cases += [(command, None, dict(base, **{sec: value}))
                  for sec in ("grid", "domain", "group", "initial", "flow",
                              "scan")
                  for value in (5, "x", [], True)]
        cases += [(command, None, dict(base, outdir=value))
                  for value in (5, None, [], True, {})]
    header = {"count": 128, "dtype": "<f8", "grid": dict(_POLAR),
              "domain": {"type": "disk", "radius": 1.0}, "p": 5.0}
    cases += [("spectrum", None, doc) for doc in _mutations(header, rng)]
    cases += [("spectrum", None, dict(header, **{sec: value}))
              for sec in ("grid", "domain") for value in (5, "x", [])]
    cases += [("spectrum", None, value) for value in ([], 5, "x")]
    for value in rng.sample(_TEXT, 10):
        cases += [("spectrum", ["--p", value], header),
                  ("spectrum", ["--group", f"cyclic:{value}"], header),
                  ("radial", ["--p", value], None),
                  ("radial", ["--p", "8", "--alpha", value], None)]
    cases += [("spectrum", ["--group", group], header) for group in
              ("cyclic", "cyclic:", ":4", "dihedral:4", "hex:4", "cyclic:4:4")]
    cases += [("spectrum", ["--k", k], header)
              for k in ("0", "-3", "1", "abc", "1.5", "")]
    cases += [("radial", ["--p", p], None) for p in ("8,", ",", "8,abc")]
    return cases


# inputs that once ended in a traceback or were accepted: each exits 2
# before any work, on both commands where the key applies
_POLAR_N = {"grid": dict(_POLAR, n=4)}
_CYCLIC_AXIS = {"group": {"kind": "cyclic", "order": 4, "axis_angle": 0.0}}
_HOLES = [
    ("flow-polar", {"initial": {"type": "ball", "scale": "x"}}),
    ("flow-polar", {"initial": {"type": "ball", "scale": None}}),
    ("flow-polar", {"initial": {"type": "ball", "scale": [1]}}),
    ("flow-polar", {"initial": {"type": "dump", "path": 5}}),
    *[(name, change) for name in ("flow-polar", "pipeline-polar")
      for change in ({"outdir": 5}, {"p": "5"}, {"alpha": True},
                     {"domain": {"type": "disk", "radius": True}},
                     _POLAR_N, _CYCLIC_AXIS)],
    # a cell weight beyond the float range, and a grid with no node
    ("pipeline-cartesian", {"domain": {"type": "disk", "radius": 1e300}}),
    ("flow-cartesian", {"domain": {"type": "squircle", "power": 1e-300}}),
    # a ball radius e^(-alpha p) that rounds to 1
    ("pipeline-cartesian", {"alpha": 1e-300}),
]


@pytest.fixture
def stubbed(monkeypatch):
    monkeypatch.setattr(radial, "solve_ivp", _stop)
    monkeypatch.setattr(flow, "evolve", _stop)


def _dump(tmp_path, header):
    """A tiny dump: the ball on polar 16x8 (not steady there) under
    ``header``, which may be any JSON value."""
    grid = geometry.PolarGrid(16, 8)
    values = 0.5 * (1.0 - np.hypot(*grid.xy.T) ** 2)
    path = tmp_path / "field.bin"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n"
                     + values.astype("<f8").tobytes())
    return path


def _run(argv, capsys):
    """The exit code, or "reached" once the run starts work; a traceback
    fails the test."""
    try:
        code = cli.main(argv)
    except Reached:
        code = "reached"
    except SystemExit as exc:  # an argument error
        code = exc.code
    err = capsys.readouterr().err.strip().splitlines()
    assert code in (0, 2, 3, 4, "reached")
    if code in (2, 3):
        assert len(err) == 1, err
    return code


def _argv(tmp_path, command, args, doc):
    """The command line of a case, with its config or dump in tmp_path."""
    if command in ("flow", "pipeline"):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"outdir": str(tmp_path / "out"), **doc}),
                        encoding="utf-8")
        return [command, "--config", str(path)]
    if command == "spectrum":
        return ["spectrum", "--field", str(_dump(tmp_path, doc)),
                *(args or [])]
    return ["radial", *args, "--out", str(tmp_path / "sweep.csv")]


@pytest.mark.parametrize("command, args, doc", _cases())
def test_every_input_ends_in_a_labelled_exit(tmp_path, capsys, stubbed,
                                              command, args, doc):
    _run(_argv(tmp_path, command, args, doc), capsys)


def test_every_input_ends_in_a_labelled_exit_with_real_work(tmp_path,
                                                             capsys):
    # no stubs: every accepted input runs its shots and flows to the end
    # on the tiny grids of its case; one test, as 500 test items would
    # cost more than the work
    for i, (command, args, doc) in enumerate(_cases()):
        case = tmp_path / str(i)
        case.mkdir()
        try:
            code = _run(_argv(case, command, args, doc), capsys)
        except Exception as exc:  # a traceback, or a failed check of _run
            raise AssertionError(f"case {i}: {command} {args} {doc}") from exc
        assert code != "reached"


@pytest.mark.parametrize("name, change", _HOLES)
def test_known_holes_exit_2_before_any_work(tmp_path, capsys, stubbed,
                                            name, change):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**_CONFIGS[name], **change,
                                "outdir": change.get("outdir",
                                                     str(tmp_path / "out"))}),
                    encoding="utf-8")
    assert _run([name.split("-")[0], "--config", str(path)], capsys) == 2


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--field", "x", "--k", "abc"],
     "lef spectrum: argument --k: invalid int value: 'abc'"),
    (["flow"], "lef flow: the following arguments are required: --config"),
    (["pipeline", "--config"],
     "lef pipeline: argument --config: expected one argument"),
    (["spectrum"], "lef spectrum: the following arguments are required: "
                   "--field"),
    (["radial", "--p", "8", "--beta", "1"],
     "lef: unrecognized arguments: --beta 1"),
    ([], "lef: the following arguments are required: command"),
    (["hexagon"], "lef: argument command: invalid choice: 'hexagon'"),
], ids=["k-not-an-int", "flow-without-config", "config-without-path",
        "spectrum-without-field", "unknown-option", "no-command",
        "unknown-command"])
def test_argument_errors_print_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert captured.out == ""
