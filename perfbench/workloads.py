"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload turns a seed into one ``lef`` command line (plus any config
file it reads) and checks what that command wrote.  The same seed always
gives the same inputs, so the same code does the same work.

Why these three:

* ``disk-c4-p8`` is the ROADMAP's end-to-end unit, the criterion-8
  pipeline config.  It runs every layer, and spectrum has its largest
  share here (the k-doubling eigensolver loop runs to Morse index 12).
* ``squircle-d4-p8`` runs the same pipeline on a masked cartesian grid
  with a dihedral group: flow and geometry are used differently and
  spectrum costs almost nothing, so a Morse-index change should not move
  it.
* ``radial-sweep`` is pure radial shooting: no flow and no spectrum work,
  so every flow or spectrum change should leave it unchanged.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# criterion 8's ledger cap: 1.10 * 4.97 * 4 pi e
LEDGER_CAP = 1.10 * 4.97 * 4.0 * math.pi * math.e
RESIDUAL_TOL = 1e-6
DISK_MORSE_INDEX = 12           # De Marchis-Ianni-Pacella, two-nodal disk
ALPHA_BOUNDS = (0.05, 0.9)      # the interval radial.optimal_alpha searches
RAY_OFFSET = 0.03               # rad; common shift of the 7-ray scan fan
RADIAL_BANDS = ((20.0, 1.0), (50.0, 2.0), (100.0, 4.0), (200.0, 8.0))


def _scan_ratios(seed: int) -> list:
    offset = np.random.default_rng(seed).uniform(-RAY_OFFSET, RAY_OFFSET)
    base = np.linspace(0.1, math.pi / 2 - 0.1, 7)
    return [float(x) for x in base + offset]


def _pipeline_config(kind: str, seed: int, outdir: Path) -> dict:
    cfg = {"p": 8.0, "alpha": "optimal", "flow": {"t_max": 120.0},
           "seed": 0, "outdir": str(outdir),
           "scan": {"ratios": _scan_ratios(seed)}}
    if kind == "disk":
        cfg.update(domain={"type": "disk", "radius": 1.0},
                   grid={"type": "polar", "n_r": 96, "n_theta": 32},
                   group={"kind": "cyclic", "order": 4})
    else:
        cfg.update(domain={"type": "squircle", "radius": 1.0, "power": 4.0},
                   grid={"type": "cartesian", "n": 64},
                   group={"kind": "dihedral", "order": 4})
    return cfg


def _radial_exponents(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [round(float(rng.uniform(c - h, c + h)), 6)
            for c, h in RADIAL_BANDS]


class Pipeline:
    """``lef pipeline`` on one config; the audit is checked independently."""

    def __init__(self, kind: str, morse_index: int | None, why: str):
        self.kind = kind
        self.morse_index = morse_index
        self.why = why

    def inputs(self, seed: int, workdir: Path) -> list:
        cfg = _pipeline_config(self.kind, seed, workdir)
        path = workdir / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return ["pipeline", "--config", str(path)]

    def check(self, exit_code: int, workdir: Path) -> tuple[bool, dict]:
        report = json.loads((workdir / "pipeline_report.json").read_text(
            encoding="utf-8"))
        audit = report["audit"]
        stages = [e for _, e in report["energy_ledger"]["stages"]]
        v0_pe = dict(report["energy_ledger"]["stages"])["v0"]
        morse = report.get("morse", {}).get("morse_index")
        checks = {
            "exit 0": exit_code == 0,
            "elliptic residual < 1e-6":
                audit["elliptic_residual"] < RESIDUAL_TOL,
            ">= 2 nodal domains": audit["nodal_count"] >= 2,
            "no boundary contact": audit["boundary_contact"] is False,
            "non-increasing ledger":
                all(a >= b - 1e-9 for a, b in zip(stages, stages[1:])),
        }
        if self.morse_index is not None:
            checks[f"Morse index {self.morse_index}"] = \
                morse == self.morse_index
        record = {
            "checks": checks,
            "nodal_count": audit["nodal_count"],
            "elliptic_residual": audit["elliptic_residual"],
            "morse_index": morse,
            "candidate_pE": stages[-1],
            # reported, never a failure: the squircle's v0 overshoots the
            # cap at the seed commit (ROADMAP item 5 finding)
            "v0_pE": v0_pe,
            "ledger_cap": LEDGER_CAP,
            "v0_within_cap": v0_pe <= LEDGER_CAP,
        }
        return all(checks.values()), record


class RadialSweep:
    """``lef radial --alpha optimal`` over one exponent from each band."""

    why = ("pure radial shooting, no flow or spectrum work: flow and "
           "spectrum changes must leave it unchanged")

    def inputs(self, seed: int, workdir: Path) -> list:
        ps = ",".join(repr(p) for p in _radial_exponents(seed))
        return ["radial", "--p", ps, "--alpha", "optimal",
                "--out", str(workdir / "radial.csv")]

    def check(self, exit_code: int, workdir: Path) -> tuple[bool, dict]:
        lines = (workdir / "radial.csv").read_text(
            encoding="utf-8").strip().splitlines()
        rows = [dict(zip(lines[0].split(","), map(float, ln.split(","))))
                for ln in lines[1:]]
        lo, hi = ALPHA_BOUNDS
        checks = {
            "exit 0": exit_code == 0,
            f"{len(RADIAL_BANDS)} rows": len(rows) == len(RADIAL_BANDS),
            "alpha inside its bounds":
                all(lo < r["alpha"] < hi for r in rows),
            "finite energies":
                all(math.isfinite(r[k]) for r in rows
                    for k in ("pE_annulus", "pE_ball", "total")),
        }
        record = {"checks": checks,
                  "rows": [{k: r[k] for k in ("p", "alpha", "total")}
                           for r in rows]}
        return all(checks.values()), record


WORKLOADS = {
    "disk-c4-p8": Pipeline(
        "disk", DISK_MORSE_INDEX,
        "criterion-8 pipeline, the ROADMAP end-to-end unit: every layer "
        "runs and spectrum has its largest share (Morse index 12)"),
    "squircle-d4-p8": Pipeline(
        "squircle", None,
        "same pipeline on a masked cartesian grid with D4: flow dominates, "
        "spectrum is tiny, so Morse-index changes should not move it"),
    "radial-sweep": RadialSweep(),
}
