"""Command line front end: constants, radial sweeps, flows, pipeline, spectra.

Subcommands:
  constants   print the sharp constants and exit 0 iff the chain holds
  radial      CSV sweep of the two-profile energy budget over p
  flow        evolve one configured initial datum, dump the trajectory
  pipeline    end-to-end sign-changing candidate search plus audit
  spectrum    Morse report for a field dump

Configs are JSON (see README).  Field dumps are a single JSON header line
followed by the node values as row-major little-endian float64.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import energy, flow, nodal, radial, spectrum
from .geometry import (CartesianMaskedGrid, DomainSpec, GridSymmetryError,
                       PolarGrid, SymmetryGroup, check_admissible, cyclic,
                       dihedral, squircle_mask)


class ConfigError(ValueError):
    """A config, dump header or argument the program does not accept."""


class MissingKeyError(ConfigError, KeyError):
    """A config section or dump header lacks the key ``args[0]``."""

    def __str__(self):
        return f"missing config key {self.args[0]!r}"


class StageError(Exception):
    """A pipeline stage's own verdict, with the ``state`` its report keeps."""

    def __init__(self, stage: str, message: str, **state):
        super().__init__(message)
        self.stage, self.state = stage, state


# each labelled failure, a StageError by its stage: its stage and exit code
_FAILURES = ((ConfigError, None, 2), (StageError, "admissibility", 2),
             (radial.RadialSolveError, "radial", 3),
             (StageError, "profiles", 3), (StageError, "scan", 3),
             (spectrum.EigenSolveError, "spectrum", 3),
             (spectrum.NotSteadyError, "spectrum", 4),
             (StageError, "audit", 4))


def _label(exc: Exception) -> tuple | None:
    """The (stage, exit code) of a labelled failure; None for another."""
    return next(((stage, code) for kind, stage, code in _FAILURES
                 if isinstance(exc, kind)
                 and getattr(exc, "stage", stage) == stage), None)


def _plain(obj):
    """obj with numpy values as Python ones and non-finite floats as None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json(obj) -> str:
    """Strict JSON: a non-finite number is written as null."""
    return json.dumps(_plain(obj), indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# field dumps
# ---------------------------------------------------------------------------

def dump_field(path, field: flow.ScalarField,
               p: float | None = None) -> None:
    """Write a field as one JSON header line plus little-endian float64;
    the header's ``grid`` and ``domain`` are the config sections of the
    field's grid."""
    header = {"count": int(field.values.size), "dtype": "<f8",
              "grid": field.grid.to_config(),
              "domain": field.grid.domain.to_config()}
    if p is not None:
        header["p"] = p
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(field.values.astype("<f8").tobytes())


def load_field(path) -> tuple[flow.ScalarField, dict]:
    """The field of a dump and its header; ConfigError unless the file reads
    as a header whose grid has ``count`` nodes and ``count`` values."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            data = np.frombuffer(fh.read(), dtype="<f8")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: not a field dump: {exc}") from None
    if not isinstance(header, dict) or not all(
            isinstance(header.get(k, {}), dict) for k in ("grid", "domain")):
        raise ConfigError(f"{path}: not a field dump: its header, grid or "
                          f"domain is not a JSON object")
    try:
        grid = _build_grid(header["grid"], header["domain"])
        count = header["count"]
    except KeyError as exc:  # a MissingKeyError from the sections too
        raise ConfigError(f"{path}: dump header has no key "
                          f"{exc.args[0]!r}") from None
    if not grid.n_nodes == count == data.size:
        raise ConfigError(f"{path}: header count {count!r}, grid of "
                          f"{grid.n_nodes} nodes and {data.size} values "
                          f"differ")
    return flow.ScalarField(grid, np.array(data)), header


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _read_config(path) -> dict:
    """The config of a JSON file; ConfigError unless the file reads as a
    JSON object whose sections are objects."""
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: not a readable JSON config: "
                          f"{exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: a config is a JSON object, got "
                          f"{type(config).__name__}")
    for name in ("grid", "domain", "group", "flow", "scan", "initial"):
        section = config.get(name, {})  # "group": null means no group
        if not (isinstance(section, dict)
                or (name == "group" and section is None)):
            raise ConfigError(f"config section {name!r} must be a JSON "
                              f"object, got {section!r}")
    return config


def _read(spec: dict, key: str, name: str | None = None, *, least=None,
          low=-math.inf, high=math.inf, default=None, what=None, text=False):
    """``spec[key]``, the one reader of config, dump-header and command-line
    numbers: ``default`` for a missing key, or MissingKeyError without one,
    else a JSON number (not a bool or a string; with ``text`` a string is
    command-line text, read as a float, or an int where it is one) that is
    an integer >= ``least`` if given, else in the open interval (low,
    high), an integer beyond the float range reading as an infinity;
    otherwise ConfigError "<name> must be <what>, got <value as written>"."""
    if key not in spec:
        if default is None:
            raise MissingKeyError(key)
        return default
    value = written = spec[key]
    if text and isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = float(value)
            value = int(written)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if least is not None:
        ok = number and isinstance(value, int) and value >= least
        what = what or f"an integer >= {least}"
    else:
        try:
            value = float(value) if number else math.nan
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
        ok = low < value < high
        what = what or f"a number in ({low:g}, {high:g})"
    if not ok:
        raise ConfigError(f"{name or key} must be {what}, got {written!r}")
    return value


def _string(spec: dict, key: str, name: str) -> str:
    """``spec[key]``, a path; ConfigError unless it is a string."""
    if not isinstance(spec[key], str):
        raise ConfigError(f"{name} must be a string, got {spec[key]!r}")
    return spec[key]


def _check_keys(section: str, spec: dict, allowed: list) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {section} config key {unknown[0]!r}; "
                          f"allowed: {', '.join(allowed)}")


# the keys that each type of a typed section takes besides its type
_KEYS = {"grid": {"polar": ("n_r", "n_theta"), "cartesian": ("n", "extent")},
         "domain": {"disk": ("radius",), "annulus": ("a", "b"),
                    "squircle": ("radius", "power")},
         "group": {"cyclic": ("order",), "dihedral": ("order", "axis_angle")},
         "initial datum": {"ball": ("scale",), "scaled-ball": ("scale",),
                           "annulus": ("scale", "a", "b"),
                           "dump": ("scale", "path")}}
# radii and extents: their squares, and so the cell weights, stay normal
_LENGTH = {"low": 1e-100, "high": 1e100}


def _typed(section: str, spec: dict, tag: str = "type", default=None) -> str:
    """The section's type (its ``tag``); ConfigError unless it is one of
    ``_KEYS[section]`` and the section has no key this type does not take."""
    keys, kind = _KEYS[section], spec.get(tag, default)
    if not (isinstance(kind, str) and kind in keys):
        raise ConfigError(f"unknown {section} {tag} {kind!r}; "
                          f"allowed: {', '.join(keys)}")
    _check_keys(section, spec, [tag, *keys[kind]])
    return kind


def _radii(spec: dict, name: str) -> tuple[float, float]:
    """The radii 0 < a < b (b = 1 by default) of an annulus section."""
    a = _read(spec, "a", f"{name} a", **_LENGTH)
    b = _read(spec, "b", f"{name} b", default=1.0, **_LENGTH)
    if not a < b:
        raise ConfigError(f"{name} needs numbers 0 < a < b, got a = "
                          f"{spec['a']!r}, b = {spec.get('b', 1.0)!r}")
    return a, b


def _build_domain(spec: dict) -> DomainSpec:
    """The domain of a config's (or a dump header's) ``domain`` section."""
    kind = _typed("domain", spec, default="disk")
    name = f"domain {kind!r}"
    if kind == "annulus":
        return DomainSpec.annulus(*_radii(spec, name))
    radius = _read(spec, "radius", f"{name} radius", default=1.0, **_LENGTH)
    if kind == "disk":
        return DomainSpec.disk(radius)
    return squircle_mask(radius, _read(spec, "power", f"{name} power",
                                       low=0.0, default=4.0))


def _build_grid(gspec: dict, domain_spec: dict):
    """The grid of a config's (or a dump header's) ``grid`` and ``domain``
    sections; a polar grid takes a disk or an annulus."""
    domain = _build_domain(domain_spec)
    if _typed("grid", gspec) == "cartesian":
        grid = CartesianMaskedGrid(
            domain, _read(gspec, "n", "grid n", least=4),
            extent=_read(gspec, "extent", "grid extent",
                         default=domain.bounding_radius, **_LENGTH))
        if grid.n_nodes == 0:
            raise ConfigError(f"grid {gspec} has no node in the domain")
        return grid
    if domain.shape not in ("disk", "annulus"):
        raise ConfigError(f"a polar grid needs a disk or annulus domain, "
                          f"got {domain_spec.get('type')!r}")
    return PolarGrid(_read(gspec, "n_r", "grid n_r", least=2),
                     _read(gspec, "n_theta", "grid n_theta", least=4),
                     r_out=domain.radius, r_in=domain.inner_radius)


def _build_group(spec: dict | None, grid,
                 text: bool = False) -> SymmetryGroup | None:
    """The group of a config's ``group`` section (None for null), or with
    ``text`` of ``--group kind:order``; its orbit grid of ``grid`` is built
    (and cached for the flow and the symmetric Morse index), or ConfigError
    if the grid does not realize it."""
    if spec is None:
        return None
    kind = _typed("group", spec, tag="kind")
    order = _read(spec, "order", "group order", least=1, text=text)
    group = cyclic(order) if kind == "cyclic" else dihedral(
        order, _read(spec, "axis_angle", "group axis_angle", default=0.0))
    try:
        grid.quotient(group)
    except GridSymmetryError as exc:
        raise ConfigError(f"grid {grid.to_config()} does not realize the "
                          f"group {kind}:{order}: {exc}") from None
    return group


def _flow_config(spec: dict) -> flow.FlowConfig:
    """The flow section: record_nodal_every is an integer >= 0,
    decay_factor a number in (0, 1), every other field a number > 0."""
    _check_keys("flow", spec,
                [f.name for f in dataclasses.fields(flow.FlowConfig)])
    return flow.FlowConfig(**{
        key: _read(spec, key, f"flow {key}", least=0)
        if key == "record_nodal_every" else
        _read(spec, key, f"flow {key}", low=0.0,
              high=1.0 if key == "decay_factor" else math.inf)
        for key in spec})


def _scan_ratios(spec: dict) -> list | None:
    """The scan section's mixing angles (a nonempty list of finite numbers),
    or None for the default fan."""
    _check_keys("scan", spec, ["ratios"])
    if "ratios" not in spec:
        return None
    ratios = spec["ratios"]
    if not isinstance(ratios, list) or not ratios:
        raise ConfigError(f"scan ratios must be a nonempty list of angles, "
                          f"got {ratios!r}")
    return [_read({"entry": theta}, "entry", "scan ratios entry")
            for theta in ratios]


_ALPHA_RULE = "a number > 0, 'optimal' or 'asymptotic'"


def _run_setup(config: dict, **defaults):
    """(flow config, p, alpha, group, grid, outdir) of a flow or pipeline
    config, ``defaults`` (flow, group, outdir) and a polar 96x32 grid on the
    unit disk filling in what it leaves out; ConfigError on an unknown or
    missing key, a value out of its range or a group the grid does not
    realize."""
    spec = {"grid": {"type": "polar", "n_r": 96, "n_theta": 32},
            "domain": {"type": "disk"}, "alpha": "optimal",
            **defaults, **config}
    cfg = _flow_config(spec["flow"])
    p = _read(spec, "p", low=1.0)
    alpha = (spec["alpha"] if spec["alpha"] in ("optimal", "asymptotic")
             else _read(spec, "alpha", low=0.0, what=_ALPHA_RULE))
    grid = _build_grid(spec["grid"], spec["domain"])
    group = _build_group(spec["group"], grid)
    outdir = Path(_string(spec, "outdir", "outdir"))
    return cfg, p, alpha, group, grid, outdir


@contextlib.contextmanager
def _reporting(report: dict, path: Path):
    """Make the directory of ``path``, run the body, then write and print
    ``report`` however it ends, a labelled failure as its ``failure``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"outdir {str(path.parent)!r}: {exc}") from None
    try:
        yield
    except Exception as exc:
        if label := _label(exc):
            report["failure"] = {"stage": label[0], **getattr(
                exc, "state", {"error": str(exc)})}
        raise
    finally:
        text = _json(report)
        path.write_text(text, encoding="utf-8")
        print(text)


def _alpha_policy(alpha, p: float):
    """'optimal' (each alpha of its search keeps the float rule itself), or
    the number alpha names ('asymptotic': the limit optimizer; other text: a
    command-line number), > 0 and under the float rule (radial.ball_radius)
    at this p; ConfigError otherwise."""
    if alpha == "optimal":
        return "optimal"
    value = (energy.minimize_f().alpha_bar if alpha == "asymptotic"
             else _read({"alpha": alpha}, "alpha", low=0.0,
                        what=_ALPHA_RULE, text=True))
    try:
        radial.ball_radius(p, value)
    except radial.RadialSolveError as exc:
        raise ConfigError(str(exc)) from None
    return value


def _resolve_alpha(policy, p: float) -> radial.AlphaChoice:
    """The two profiles at a policy ``_alpha_policy`` has checked at this p:
    'optimal' (the zero of the budget's alpha-derivative) or a number."""
    return (radial.optimal_alpha(p) if policy == "optimal"
            else radial.profiles_at(p, policy))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def run_constants(args) -> int:
    opt = energy.minimize_f()
    f_fifth = energy.f_alpha(0.2)
    rows = [
        ("4*pi*e", energy.FOUR_PI_E, "limit of inf_N p E_p", "PAPER"),
        ("8*pi*e", 2 * energy.FOUR_PI_E, "ball energy limit", "PAPER"),
        ("alpha_bar", opt.alpha_bar, "argmin of e^(2a-1)/a + e^(4a)",
         "DERIVED"),
        ("f(alpha_bar)", opt.f_value, "min two-profile budget factor",
         "DERIVED"),
        ("f(1/5)", f_fifth, "budget factor at alpha = 1/5", "PAPER"),
        ("4.97*4*pi*e", energy.UPPER_BOUND_CONST, "energy upper bound",
         "PAPER"),
        ("|f'(alpha_bar)|", abs(energy.f_alpha_prime(opt.alpha_bar)),
         "stationarity residual", "TRIVIAL"),
    ]
    report = {name: {"value": val, "note": note, "tag": tag}
              for name, val, note, tag in rows}
    chain_ok = (opt.f_value <= f_fifth <= 4.97
                and abs(energy.f_alpha_prime(opt.alpha_bar)) < 1e-8)
    report["chain"] = {"f(alpha_bar) <= f(1/5) <= 4.97": chain_ok}
    print(_json(report))
    return 0 if chain_ok else 1


# ---------------------------------------------------------------------------
# radial sweep
# ---------------------------------------------------------------------------

def run_radial_sweep(args) -> int:
    p_list = [_read({"p": tok}, "p", low=1.0, text=True)
              for tok in args.p.split(",")]
    # every argument is checked before the first shot
    policies = [_alpha_policy(args.alpha, p) for p in p_list]
    lines = ["p,alpha,pE_annulus,pE_ball,total,bound,delta"]
    for p, policy in zip(p_list, policies):
        rep = energy.upper_bound_report(_resolve_alpha(policy, p))
        delta = rep.total / rep.bound
        lines.append(f"{p:g},{rep.alpha:.10g},{rep.p_energy_annulus:.10g},"
                     f"{rep.p_energy_ball:.10g},{rep.total:.10g},"
                     f"{rep.bound:.10g},{delta:.10g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# single flow
# ---------------------------------------------------------------------------

def _initial_field(spec: dict, grid, p: float, alpha):
    """The configured initial datum; ``alpha`` ('optimal' or a number) is
    resolved only by the datum that uses it (a numeric alpha needs no
    annulus)."""
    kind = _typed("initial datum", spec, default="ball")
    scale = _read(spec, "scale", "initial scale", default=1.0)
    if kind == "dump":
        if "path" not in spec:
            raise ConfigError("initial dump needs a 'path'")
        field, _ = load_field(_string(spec, "path", "initial path"))
        recipe = (field.grid.to_config(), field.grid.domain.to_config())
        if recipe != (grid.to_config(), grid.domain.to_config()):
            raise ConfigError(f"the dump's grid {recipe[0]} on {recipe[1]} "
                              f"is not the config's grid {grid.to_config()} "
                              f"on {grid.domain.to_config()}")
        return flow.ScalarField(grid, field.values).scaled(scale)
    if kind == "annulus":
        prof = radial.solve_annulus(p, *_radii(spec, "initial annulus"))
    elif kind == "scaled-ball":
        alpha = _alpha_policy(alpha, p)
        if alpha == "optimal":
            choice = radial.optimal_alpha(p)
            alpha, ball = choice.alpha, choice.ball
        else:
            ball = radial.solve_ball(p)
        prof = radial.build_ball_solution_scaled(p, alpha, ball)
    else:
        prof = radial.solve_ball(p)
    return flow.field_from_radial(grid, prof).scaled(scale)


def run_flow(args) -> int:
    config = _read_config(args.config)
    cfg, p, alpha, group, grid, outdir = _run_setup(
        config, flow={}, group=None, outdir=".")
    v0 = _initial_field(config.get("initial", {}), grid, p, alpha)
    if group is not None:  # the G-invariant flow runs on the orbit grid
        v0 = v0.on(grid.quotient(group))
    report: dict = {}
    with _reporting(report, outdir / "flow_report.json"):
        traj = flow.evolve(v0, p, cfg)
        rows = ["t,energy,sup"]
        rows += [f"{t:.10g},{e:.10g},{s:.10g}" for t, e, s in
                 zip(traj.times, traj.energies, traj.sup_norms)]
        (outdir / "trajectory.csv").write_text("\n".join(rows) + "\n",
                                               encoding="utf-8")
        dump_field(outdir / "final.bin", traj.final.lifted(), p=p)
        report.update(
            classification=traj.classification.value, t_final=traj.t_final,
            final_residual=traj.final_residual, steps=int(len(traj.dts)),
            energy_initial=float(traj.energies[0]),
            energy_final=float(traj.energies[-1]),
            energy_defects=traj.energy_defects,
            energy_overflow=not np.all(np.isfinite(traj.energies)),
            nodal_counts=traj.nodal_counts)
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _audit_candidate(cand: flow.ScalarField, p: float, group) -> dict:
    """The audit of the lifted candidate, read on the full grid of
    ``unknowns`` nodes (the scan's residual is read on its orbit grid)."""
    dec = nodal.decompose(cand)
    audit = {
        "elliptic_residual": spectrum.elliptic_residual(cand, p),
        "unknowns": cand.grid.n_nodes,
        "nodal_count": dec.n_domains,
        "boundary_contact": dec.boundary_contact,
        "origin_domain": dec.origin_domain,
        "origin_interior": dec.origin_domain is not None,
        "per_domain_pE": [p * r.energy
                          for r in nodal.per_domain_energy(cand, dec, p)],
    }
    if group is not None:
        audit["symmetry_defect"] = float(
            cand.grid.symmetry_defect(cand.values, group))
    return audit


def run_pipeline(args) -> int:
    config = _read_config(args.config)
    cfg, p, alpha, group, grid, outdir = _run_setup(
        config, flow={"t_max": 120.0}, group={"kind": "cyclic", "order": 4},
        outdir="pipeline_out")
    domain = grid.domain
    ratios = _scan_ratios(config.get("scan", {}))
    alpha = _alpha_policy(alpha, p)

    report: dict = {"p": p, "config": config, "admissible": (
        group is not None and check_admissible(group, domain))}
    with _reporting(report, outdir / "pipeline_report.json"):
        if not report["admissible"]:
            name = group and f"{group.kind}:{group.order_h}"
            raise StageError("admissibility", f"the group {name} is not "
                             f"admissible on the domain {domain.to_config()}")

        choice = _resolve_alpha(alpha, p)
        alpha = report["alpha"] = choice.alpha
        report["alpha_search"] = {"solves": choice.solves,
                                  "derivative": choice.derivative}
        inner = radial.build_ball_solution_scaled(p, alpha, choice.ball)
        f1 = flow.field_from_radial(grid, inner)
        f2 = flow.field_from_radial(grid, choice.annulus, sign=-1.0)
        if not (np.any(f1.values) and np.any(f2.values)):
            # e.g. an annulus whose hole holds the ball r < e^{-alpha p}
            rho = radial.ball_radius(p, alpha)
            raise StageError(
                "profiles", f"the ball profile on r < {rho:.4g} or the "
                f"annulus profile on ({rho:.4g}, 1) is zero on every node of "
                f"the domain {domain.inner_radius:g} <= r <= "
                f"{domain.bounding_radius:g}", ball_radius=rho,
                annulus_radii=[rho, 1.0],
                domain_radii=[domain.inner_radius, domain.bounding_radius])
        u1, u2 = (energy.nehari_project(f, p)[0] for f in (f1, f2))
        pE1, pE2 = (p * energy.field_energy(u, p).energy for u in (u1, u2))
        report["component_pE"] = {"ball": pE1, "annulus": pE2,
                                  "sum": pE1 + pE2}

        # u1 and u2 are radial and the flow commutes with every node
        # permutation the grid realizes, so the scan runs on the orbit grid
        # of the grid's whole symmetry group (G is a subgroup; on a polar
        # grid its orbits are the rings); v0 and candidates are lifted back
        orbits = grid.quotient(grid.symmetry_group)
        scan = flow.ray_scan(u1.on(orbits), u2.on(orbits), p, ratios=ratios,
                             config=cfg)
        n_rays = len(scan.all_results)
        report["scan"] = {"n_rays": n_rays, "unknowns": orbits.n_nodes,
                          "success": scan.success, "rays": [
                              (th, r if isinstance(r, str) else r.to_dict())
                              for th, r in scan.all_results]}
        if not scan.success:
            raise StageError("scan", f"no sign-changing candidate on any of "
                             f"{n_rays} rays", n_rays=n_rays)

        # v0, the energy-consistent datum: the transition ray's threshold point
        chosen_res, chosen_theta = scan.chosen
        lam, v0 = chosen_res.lambda_star, chosen_res.v0.lifted()
        report["chosen"] = {"theta": chosen_theta,
                            "t1": lam * math.cos(chosen_theta),
                            "t2": lam * math.sin(chosen_theta),
                            "lambda_star": lam,
                            "bisection_width": chosen_res.bisection_width}
        found, theta = scan.candidate
        report["candidate"] = {"theta": theta, "source": found.source,
                               "residual": found.residual}

        candidate = found.field.lifted()
        stages = [("v0", p * energy.field_energy(v0, p).energy),
                  ("candidate", p * energy.field_energy(candidate, p).energy)]
        audit = report["audit"] = _audit_candidate(candidate, p, group)

        report["energy_ledger"] = {
            "stages": stages, "bound": energy.UPPER_BOUND_CONST,
            "nonincreasing": all(a >= b - 1e-9 for (_, a), (_, b)
                                 in zip(stages, stages[1:]))}

        dump_field(outdir / "candidate.bin", candidate, p=p)
        dump_field(outdir / "v0.bin", v0, p=p)
        report["outputs"] = {"candidate": str(outdir / "candidate.bin"),
                             "v0": str(outdir / "v0.bin")}
        report["morse"] = _morse_report(candidate, p, group)

        failed = [name for name, ok in (
            ("residual",
             audit["elliptic_residual"] <= spectrum.STEADY_RESIDUAL_TOL),
            ("boundary contact", not audit["boundary_contact"]),
            ("ledger", report["energy_ledger"]["nonincreasing"]),
            ("nodal count", audit["nodal_count"] == 2)) if not ok]
        if failed:
            raise StageError(
                "audit", f"{', '.join(failed)} failed "
                f"({audit['nodal_count']} nodal domains, elliptic residual "
                f"{audit['elliptic_residual']:.3g})", failed=failed)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _morse_report(field: flow.ScalarField, p: float, group,
                  k: int = 12) -> dict:
    """The Morse report of a steady field, with the half-domain eigenvalue
    and the residual of its odd extension; both are None when the field is
    not symmetric about the x2-axis."""
    out = spectrum.morse_index(field, p, group, k=k).to_dict()
    try:
        mu, info = spectrum.half_domain_mu(field, p)
    except spectrum.AxisAsymmetryError:
        return dict(out, half_domain_mu=None, odd_extension_residual=None)
    return dict(out, half_domain_mu=mu,
                odd_extension_residual=info["odd_extension_residual"])


def run_spectrum(args) -> int:
    _read(vars(args), "k", "--k", least=1, what=">= 1")
    field, header = load_field(args.field)
    if args.p is None and "p" not in header:
        raise ConfigError("p not in dump header; pass --p")
    p = (_read(header, "p", low=1.0) if args.p is None
         else _read(vars(args), "p", low=1.0, text=True))
    group = None
    if args.group:
        kind, _, order = args.group.partition(":")
        group = _build_group({"kind": kind, "order": order}, field.grid,
                             text=True)
    print(_json(_morse_report(field, p, group, args.k)))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument error is one stderr line and exit 2, like a config's."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="lef",
        description="Sign-changing steady states of -Lap u = |u|^(p-1) u "
                    "via the semilinear heat flow")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", help="sharp constants and their chain")

    p_rad = sub.add_parser("radial", help="two-profile energy sweep (CSV)")
    p_rad.add_argument("--p", required=True,
                       help="comma-separated exponents, e.g. 20,50,100,200")
    p_rad.add_argument("--alpha", default="optimal",
                       help="number, 'optimal' (per-p) or 'asymptotic'")
    p_rad.add_argument("--out", default=None, help="CSV path (default stdout)")

    p_flow = sub.add_parser("flow", help="evolve one configured datum")
    p_flow.add_argument("--config", required=True)

    p_pipe = sub.add_parser("pipeline", help="sign-changing candidate search")
    p_pipe.add_argument("--config", required=True)

    p_spec = sub.add_parser("spectrum", help="Morse report for a field dump")
    p_spec.add_argument("--field", required=True)
    p_spec.add_argument("--p", default=None)
    p_spec.add_argument("--k", type=int, default=12,
                        help="number of eigenvalues nearest the Morse "
                             "shift -1e-8*|lambda_1| to print per space; "
                             "the Morse index is an inertia count, not "
                             "capped by k")
    p_spec.add_argument("--group", default=None,
                        help="kind:order, e.g. cyclic:4")

    args = parser.parse_args(argv)
    handlers = {"constants": run_constants, "radial": run_radial_sweep,
                "flow": run_flow, "pipeline": run_pipeline,
                "spectrum": run_spectrum}
    try:
        return handlers[args.command](args)
    except Exception as exc:
        if (label := _label(exc)) is None:
            raise
        stage, code = label
        print(f"lef {args.command}: {stage + ' stage: ' if stage else ''}"
              f"{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
