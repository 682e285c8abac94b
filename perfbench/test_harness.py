"""Tests of the benchmark harness itself (not of lef).

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from lef import cli, flow, geometry, radial, spectrum  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_on_synthetic_tree():
    # root 0..10 holds a 1..4 and b 5..9; b holds a nested a 6..8
    tree = [["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 5.0, 9.0, 0],
            ["a", 6.0, 8.0, 2],
            ["c", 6.5, 7.0, 3]]
    t = spans.span_times(tree)
    assert t["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert t["b"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    assert t["a"] == {"calls": 2, "s": 5.0, "self_s": 4.5}
    assert t["c"] == {"calls": 1, "s": 0.5, "self_s": 0.5}
    assert sum(r["self_s"] for r in t.values()) == pytest.approx(10.0)


def test_recursive_span_counted_once_inclusive():
    tree = [["f", 0.0, 4.0, -1], ["f", 1.0, 3.0, 0]]
    t = spans.span_times(tree)
    assert t["f"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_metric_names_and_benchmark_json():
    doc = run.benchmark_json()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), \
        [n for n in names if not NAME.fullmatch(n)]
    assert 1 <= len(doc["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == doc, "regenerate: perfbench/run.py --write-benchmark-json"


def test_timing_summary_tail_needs_eleven_samples():
    assert run.timing_summary([3.0, 1.0, 2.0])["tail"] is None
    s = run.timing_summary([float(i) for i in range(1, 21)])
    assert s["n"] == 20 and s["median"] == 10.5
    assert s["tail"] == {"percentile": 50.0, "value": 10.0}


def _layer_calls():
    # a fresh grid each time: flow caches its LU factors on the grid
    grid = geometry.PolarGrid(12, 8)
    v = flow.field_from_radial(grid, radial.solve_ball(3.0))
    return (radial.solve_ball(3.0).u, flow.step(v, 3.0, 0.01).values,
            spectrum.elliptic_residual(v, 3.0),
            grid.symmetrize(v.values, geometry.cyclic(4)),
            spectrum.newton_polish(v, 3.0, max_iter=2)[0].values)


def test_wrapped_entry_points_return_what_unwrapped_return():
    plain = _layer_calls()
    tr = spans.Tracer("test", "test")
    undo = spans.install(tr)
    try:
        traced = _layer_calls()
        grid = cli.PolarGrid(12, 8)
        assert isinstance(grid, cli.PolarGrid)
        assert type(grid) is geometry.PolarGrid
    finally:
        spans.uninstall(undo)
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    names = {s[0] for s in tr.spans}
    assert {"radial.solve_ball", "radial.shot", "flow.step", "flow.lu.factor",
            "flow.lu.solve", "spectrum.elliptic_residual",
            "geometry.symmetrize", "geometry.grid_build",
            "spectrum.newton_polish", "spectrum.lu.factor",
            "spectrum.lu.solve"} <= names


def test_uninstall_restores_every_name():
    undo = spans.install(spans.Tracer("t", "t"))
    spans.uninstall(undo)
    for owner, attr, original in undo:
        assert owner.__dict__[attr] is original


def test_probe_and_step_counts_match_the_result():
    grid = geometry.PolarGrid(16, 8)
    direction = flow.field_from_radial(grid, radial.solve_ball(3.0))
    tr = spans.Tracer("test", "test")
    undo = spans.install(tr)
    try:
        res = flow.threshold_bisect(direction, 3.0,
                                    flow.FlowConfig(t_max=5.0),
                                    width_tol=0.05, polish=False)
    finally:
        spans.uninstall(undo)
    m = spans.layer_metrics(tr, 1.0)
    assert m["flow.probes"][0] == len(res.probes)
    assert m["flow.evolve.calls"][0] == len(res.probes)
    by_class = sum(m[f"flow.probes.{c}"][0] for c in spans.PROBE_CLASSES)
    assert by_class == len(res.probes)
    assert m["flow.step.calls"][0] == (m["flow.steps.accepted"][0]
                                       + m["flow.steps.rejected"][0])
    assert m["flow.lu.solve.calls"][0] == m["flow.step.calls"][0]
