"""Outside-in span tracer for the lef layers.

`install` replaces each public entry point of geometry, radial, energy,
flow, nodal, spectrum and cli, and the scipy calls right below them, in
the namespace where its callers look it up, by a wrapper that records a
span (name, start, end, parent) in a `Tracer`.  Nothing under ``src/``
changes: ``flow.evolve`` finds the wrapped ``flow.step`` because it looks
the name up in ``flow``'s globals on every call, while ``cli`` holds its
own ``PolarGrid`` reference, so that name is replaced in ``cli``.

`layer_metrics` turns the span tree into the per-layer metrics named in
BENCHMARK.json; the names are the contract a later in-program trace must
emit too (see NOTES.md).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# Spans reported with .calls, .s (inclusive) and .self_s, in report order.
SPAN_NAMES = (
    "cli",
    "geometry.grid_build", "geometry.symmetrize",
    "radial.optimal_alpha", "radial.solve_annulus", "radial.solve_ball",
    "radial.shot",
    "energy.upper_bound_report", "energy.nehari_project",
    "energy.field_energy",
    "flow.field_from_radial", "flow.ray_scan", "flow.refine_transition",
    "flow.restart_from_nodal_pair", "flow.threshold_bisect", "flow.evolve",
    "flow.step", "flow.lu.factor", "flow.lu.solve",
    "nodal.decompose",
    "spectrum.morse_index", "spectrum.eigsh", "spectrum.half_domain_mu",
    "spectrum.newton_polish", "spectrum.elliptic_residual",
    "spectrum.lu.factor", "spectrum.lu.solve",
)
LAYERS = ("cli", "geometry", "radial", "energy", "flow", "nodal", "spectrum")
PROBE_CLASSES = ("decay", "blowup", "steady", "maxtime")
COUNT_NAMES = ("flow.probes",
               *(f"flow.probes.{c}" for c in PROBE_CLASSES),
               "flow.probes.in_refine", "flow.steps.accepted")

# (module, attribute, span name): plain functions replaced where they are
# looked up.  A name a module imported with ``from x import f`` is its own
# entry (nodal.field_energy, radial.solve_ivp).
FUNCTION_ENTRY_POINTS = (
    ("cli", "main", "cli"),
    ("radial", "optimal_alpha", "radial.optimal_alpha"),
    ("radial", "solve_annulus", "radial.solve_annulus"),
    ("radial", "solve_ball", "radial.solve_ball"),
    ("radial", "solve_ivp", "radial.shot"),
    ("energy", "upper_bound_report", "energy.upper_bound_report"),
    ("energy", "nehari_project", "energy.nehari_project"),
    ("energy", "field_energy", "energy.field_energy"),
    ("nodal", "field_energy", "energy.field_energy"),
    ("flow", "field_from_radial", "flow.field_from_radial"),
    ("flow", "ray_scan", "flow.ray_scan"),
    ("flow", "refine_transition", "flow.refine_transition"),
    ("flow", "restart_from_nodal_pair", "flow.restart_from_nodal_pair"),
    ("flow", "threshold_bisect", "flow.threshold_bisect"),
    ("flow", "evolve", "flow.evolve"),
    ("flow", "step", "flow.step"),
    ("nodal", "decompose", "nodal.decompose"),
    ("spectrum", "morse_index", "spectrum.morse_index"),
    ("spectrum", "half_domain_mu", "spectrum.half_domain_mu"),
    ("spectrum", "newton_polish", "spectrum.newton_polish"),
    ("spectrum", "elliptic_residual", "spectrum.elliptic_residual"),
)


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self, run_id: str, workload: str):
        self.run_id = run_id
        self.workload = workload
        self.spans: list = []       # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def layer(self) -> str:
        """Layer of the innermost open span (scipy calls are charged to it)."""
        cur = self.current()
        return cur.split(".", 1)[0] if cur else "cli"

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result)`` runs once it is closed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out)
            return out
        return traced

    def dump(self, path, **extra) -> None:
        """Write the spans once the run is over (times relative to the
        first span's start)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"run_id": self.run_id, "workload": self.workload, **extra,
               "fields": ["name", "start_s", "end_s", "parent"],
               "spans": [[n, round(s - t0, 9), round(e - t0, 9), p]
                         for n, s, e, p in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _ModuleView:
    """A module with some attributes overridden, for one caller's lookups."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedLU:
    """SuperLU factor whose ``solve`` is a span of the calling layer."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        tr = self._tracer
        idx = tr.open(tr.layer() + ".lu.solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            tr.close(idx)


class _TracedClass:
    """Grid class stand-in: construction is a span, isinstance still works."""

    def __init__(self, tracer: Tracer, name: str, cls):
        self._tracer, self._name, self._cls = tracer, name, cls

    def __call__(self, *args, **kwargs):
        idx = self._tracer.open(self._name)
        try:
            return self._cls(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def __instancecheck__(self, obj):
        return isinstance(obj, self._cls)


def _counting_hooks(tracer: Tracer) -> dict:
    """Counters taken from an entry point's return value."""
    counts = tracer.counts

    def after_evolve(traj):
        counts["flow.steps.accepted"] += len(traj.dts)
        # after the evolve span closes, a probe's parent is still open
        if tracer.current() == "flow.threshold_bisect":
            counts["flow.probes"] += 1
            counts["flow.probes." + traj.classification.name.lower()] += 1
            if tracer.inside("flow.refine_transition"):
                counts["flow.probes.in_refine"] += 1

    return {"flow.evolve": after_evolve}


def install(tracer: Tracer) -> list:
    """Wrap every entry point; returns the patch list for `uninstall`."""
    import scipy.sparse.linalg as spla

    from lef import cli, energy, flow, geometry, nodal, radial, spectrum

    modules = {"cli": cli, "radial": radial, "energy": energy, "flow": flow,
               "nodal": nodal, "spectrum": spectrum}
    hooks = _counting_hooks(tracer)

    def splu(*args, **kwargs):
        idx = tracer.open(tracer.layer() + ".lu.factor")
        try:
            lu = spla.splu(*args, **kwargs)
        finally:
            tracer.close(idx)
        return _TracedLU(tracer, lu)

    patches = [(modules[mod], attr,
                tracer.wrap(name, getattr(modules[mod], attr),
                            hooks.get(name)))
               for mod, attr, name in FUNCTION_ENTRY_POINTS]
    patches += [
        (cli, "PolarGrid",
         _TracedClass(tracer, "geometry.grid_build", geometry.PolarGrid)),
        (cli, "CartesianMaskedGrid",
         _TracedClass(tracer, "geometry.grid_build",
                      geometry.CartesianMaskedGrid)),
        (geometry._GridBase, "symmetrize",
         tracer.wrap("geometry.symmetrize", geometry._GridBase.symmetrize)),
        (flow, "spla", _ModuleView(spla, splu=splu)),
        (spectrum, "spla", _ModuleView(
            spla, splu=splu,
            eigsh=tracer.wrap("spectrum.eigsh", spla.eigsh))),
    ]
    undo = []
    for owner, attr, new in patches:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# span tree -> metrics
# ---------------------------------------------------------------------------

def span_times(spans: list) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is the span's duration minus the durations of its direct
    children (spans nest, so children never overlap).  Inclusive time
    counts only spans with no ancestor of the same name, so recursion is
    not counted twice.
    """
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    out: dict = {}
    for i, (name, _, _, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += dur[i] - child[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            rec["s"] += dur[i]
    return out


def _count_children(spans: list, name: str, parent_name: str) -> int:
    return sum(1 for n, _, _, par in spans
               if n == name and par >= 0 and spans[par][0] == parent_name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_solve_s: float) -> dict:
    """Per-layer metrics of one traced call, as {name: (value, unit)}.

    The tracing overhead needs an untraced call too; run.py adds it.
    """
    spans = tracer.spans
    times = span_times(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m: dict = {}
    for name in SPAN_NAMES:
        rec = times.get(name, empty)
        m[f"{name}.calls"] = (rec["calls"], "count")
        m[f"{name}.s"] = (rec["s"], "s")
        m[f"{name}.self_s"] = (rec["self_s"], "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (
            sum(rec["self_s"] for name, rec in times.items()
                if name.split(".", 1)[0] == layer), "s")

    c = tracer.counts
    for name in COUNT_NAMES:
        m[name] = (c[name], "count")
    rays = times.get("flow.threshold_bisect", empty)["calls"]
    m["flow.probes_per_ray"] = (_ratio(c["flow.probes"], rays), "ratio")
    m["flow.refine_probe_share"] = (
        _ratio(c["flow.probes.in_refine"], c["flow.probes"]), "ratio")
    m["flow.steps.rejected"] = (
        times.get("flow.step", empty)["calls"] - c["flow.steps.accepted"],
        "count")
    annulus_shots = _count_children(spans, "radial.shot",
                                    "radial.solve_annulus")
    m["radial.shots"] = (times.get("radial.shot", empty)["calls"], "count")
    m["radial.shots_per_solve"] = (
        _ratio(annulus_shots, times.get("radial.solve_annulus",
                                        empty)["calls"]), "ratio")
    m["spectrum.newton.iterations"] = (
        _count_children(spans, "spectrum.lu.factor",
                        "spectrum.newton_polish"), "count")

    total_self = sum(rec["self_s"] for rec in times.values())
    m["trace.solve_s"] = (traced_solve_s, "s")
    m["trace.coverage"] = (_ratio(total_self, traced_solve_s), "ratio")
    return m
