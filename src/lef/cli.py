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
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import energy, flow, nodal, radial, spectrum
from .geometry import (CartesianMaskedGrid, ConfigError, DomainSpec,
                       GridSymmetryError, PolarGrid, SymmetryGroup,
                       check_admissible, config_number, cyclic, dihedral)


def _np_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, default=_np_default)


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
    """The field of a dump and its header; ConfigError unless the file
    reads as a header whose grid has ``count`` nodes and ``count``
    values."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            data = np.frombuffer(fh.read(), dtype="<f8")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: not a field dump: {exc}") from None
    try:
        grid = _build_grid(header["grid"], header["domain"])
        count = header["count"]
    except KeyError as exc:
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

# config sections that are JSON objects; "group": null means no group
_SECTIONS = ("grid", "domain", "group", "flow", "scan", "initial")


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
    for name in _SECTIONS:
        section = config.get(name, {})
        if not (isinstance(section, dict)
                or (name == "group" and section is None)):
            raise ConfigError(f"config section {name!r} must be a JSON "
                              f"object, got {section!r}")
    return config


def _config_int(value, name: str, least: int) -> int:
    """An integer config value; ConfigError unless it is one >= least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, "
                          f"got {value!r}")
    return value


def _build_grid(gspec: dict, domain_spec: dict):
    """The grid of a config's (or a dump header's) ``grid`` and ``domain``
    sections; a polar grid takes a disk or an annulus."""
    domain = DomainSpec.from_config(domain_spec)
    kind = gspec.get("type")
    if kind == "polar":
        if domain.shape not in ("disk", "annulus"):
            raise ConfigError(f"a polar grid needs a disk or annulus domain, "
                              f"got {domain_spec.get('type')!r}")
        return PolarGrid(_config_int(gspec["n_r"], "grid n_r", 2),
                         _config_int(gspec["n_theta"], "grid n_theta", 4),
                         r_out=domain.radius, r_in=domain.inner_radius)
    if kind == "cartesian":
        n = _config_int(gspec["n"], "grid n", 4)
        extent = config_number(gspec.get("extent", domain.bounding_radius))
        if not 0.0 < extent < math.inf:
            raise ConfigError(f"grid extent must be a number > 0, "
                              f"got {gspec['extent']!r}")
        return CartesianMaskedGrid(domain, n, extent=extent)
    raise ConfigError(f"unknown grid type {kind!r}; "
                      "allowed: polar, cartesian")


def _build_group(spec: dict | None) -> SymmetryGroup | None:
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind not in ("cyclic", "dihedral"):
        raise ConfigError(f"unknown group kind {kind!r}; "
                          "allowed: cyclic, dihedral")
    order = _config_int(spec["order"], "group order", 1)
    if kind == "cyclic":
        return cyclic(order)
    axis = config_number(spec.get("axis_angle", 0.0))
    if not math.isfinite(axis):
        raise ConfigError(f"group axis_angle must be a number, "
                          f"got {spec['axis_angle']!r}")
    return dihedral(order, axis)


def _realize(grid, group: SymmetryGroup | None) -> None:
    """Build the grid's orbit grid of the group (cached for the flow);
    ConfigError if the grid does not realize the group."""
    if group is None:
        return
    try:
        grid.quotient(group)
    except GridSymmetryError as exc:
        raise ConfigError(f"grid {grid.to_config()} does not realize the "
                          f"group {group.kind}:{group.order_h}: "
                          f"{exc}") from None


def _check_keys(section: str, spec: dict, allowed: list) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {section} config key {unknown[0]!r}; "
                          f"allowed: {', '.join(allowed)}")


def _config_real(value, name: str, low: float, high: float) -> float:
    """A number config value in the open interval (low, high); ConfigError
    unless it is one.  Booleans and strings are not numbers."""
    number = (config_number(value) if isinstance(value, (int, float))
              and not isinstance(value, bool) else math.nan)
    if not low < number < high:
        raise ConfigError(f"{name} must be a number in ({low:g}, {high:g}), "
                          f"got {value!r}")
    return number


# the open interval each float field of the flow section must lie in
_FLOW_RANGES = {"dt_max": (0.0, math.inf), "c_stab": (0.0, math.inf),
                "t_max": (0.0, math.inf), "residual_tol": (0.0, math.inf),
                "decay_factor": (0.0, 1.0)}


def _flow_config(spec: dict | None) -> flow.FlowConfig:
    """The flow section as a FlowConfig; ConfigError on an unknown key or
    a value out of its range (``_FLOW_RANGES``; record_nodal_every is an
    integer >= 0)."""
    spec = spec or {}
    _check_keys("flow", spec,
                [f.name for f in dataclasses.fields(flow.FlowConfig)])
    values = {}
    for name, value in spec.items():
        if name == "record_nodal_every":
            values[name] = _config_int(value, f"flow {name}", 0)
        else:
            values[name] = _config_real(value, f"flow {name}",
                                        *_FLOW_RANGES[name])
    return flow.FlowConfig(**values)


def _scan_ratios(spec: dict) -> list | None:
    """The scan section's mixing angles, or None for the default fan;
    ConfigError unless ``ratios`` is a nonempty list of finite numbers."""
    if "ratios" not in spec:
        return None
    ratios = spec["ratios"]
    if not isinstance(ratios, list) or not ratios:
        raise ConfigError(f"scan ratios must be a nonempty list of angles, "
                          f"got {ratios!r}")
    return [_config_real(theta, "scan ratios entry", -math.inf, math.inf)
            for theta in ratios]


def _run_setup(config: dict, flow_default, group_default):
    """(flow config, p, group, grid) of a flow or pipeline config; the
    grid defaults to polar 96x32 on the unit disk.

    An unknown or missing key, or a group the grid does not realize,
    raises ConfigError before any work starts.
    """
    try:
        cfg = _flow_config(config.get("flow", flow_default))
        p = _exponent(config["p"])
        group = _build_group(config.get("group", group_default))
        grid = _build_grid(
            config.get("grid", {"type": "polar", "n_r": 96, "n_theta": 32}),
            config.get("domain", {"type": "disk"}))
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc.args[0]!r}") from None
    _realize(grid, group)
    return cfg, p, group, grid


def _exponent(value) -> float:
    """The exponent p from a config or the command line; ConfigError
    unless it is a finite number > 1."""
    p = config_number(value)
    if not 1.0 < p < math.inf:
        raise ConfigError(f"p must be a finite number > 1, got {value!r}")
    return p


def _alpha_policy(alpha, p: float):
    """'optimal', or the number alpha names ('asymptotic' is the limit
    optimizer); ConfigError unless every alpha it can use at this p has
    0 < alpha and alpha*p <= AMPLITUDE_EXPONENT_GUARD."""
    guard = radial.AMPLITUDE_EXPONENT_GUARD
    if alpha in (None, "optimal"):
        top = radial.ALPHA_BOUNDS[1]
        if top * p > guard:
            raise ConfigError(
                f"alpha 'optimal' searches alpha up to {top:g}, and "
                f"alpha*p = {top * p:g} at p = {p:g} exceeds the amplitude "
                f"guard {guard:g}")
        return "optimal"
    value = (energy.minimize_f().alpha_bar if alpha == "asymptotic"
             else config_number(alpha))
    if not value > 0.0:
        raise ConfigError(f"alpha must be a number > 0, 'optimal' or "
                          f"'asymptotic', got {alpha!r}")
    if value * p > guard:
        raise ConfigError(f"alpha*p = {value * p:g} at p = {p:g} exceeds "
                          f"the amplitude guard {guard:g}")
    return value


def _resolve_alpha(alpha, p: float) -> radial.AlphaChoice:
    """The two profiles at a numeric alpha, or at a named policy's:
    'optimal' minimizes the measured two-profile sum at this p,
    'asymptotic' uses the limit optimizer."""
    policy = _alpha_policy(alpha, p)
    if policy == "optimal":
        return radial.optimal_alpha(p)
    return radial.profiles_at(p, policy)


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
    p_list = [_exponent(tok) for tok in args.p.split(",")]
    for p in p_list:  # every argument is checked before the first shot
        _alpha_policy(args.alpha, p)
    lines = ["p,alpha,pE_annulus,pE_ball,total,bound,delta"]
    for p in p_list:
        rep = energy.upper_bound_report(_resolve_alpha(args.alpha, p))
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
    """The configured initial datum; ``alpha`` is the unresolved config
    value, resolved only by the datum that uses it (a numeric alpha needs
    no annulus)."""
    kind = spec.get("type", "ball")
    scale = spec.get("scale", 1.0)
    if kind == "ball":
        prof = radial.solve_ball(p)
        return flow.field_from_radial(grid, prof).scaled(scale)
    if kind == "scaled-ball":
        alpha = _alpha_policy(alpha, p)
        if alpha == "optimal":
            choice = radial.optimal_alpha(p)
            alpha, ball = choice.alpha, choice.ball
        else:
            ball = radial.solve_ball(p)
        prof = radial.build_ball_solution_scaled(p, alpha, ball)
        return flow.field_from_radial(grid, prof).scaled(scale)
    if kind == "annulus":
        a, b = config_number(spec.get("a")), config_number(spec.get("b", 1.0))
        if not 0.0 < a < b:
            raise ConfigError(f"initial annulus needs numbers 0 < a < b, got "
                              f"a = {spec.get('a')!r}, b = "
                              f"{spec.get('b', 1.0)!r}")
        prof = radial.solve_annulus(p, a, b)
        return flow.field_from_radial(grid, prof).scaled(scale)
    if kind == "dump":
        if "path" not in spec:
            raise ConfigError("initial dump needs a 'path'")
        field, _ = load_field(spec["path"])
        recipe = (field.grid.to_config(), field.grid.domain.to_config())
        if recipe != (grid.to_config(), grid.domain.to_config()):
            raise ConfigError(f"the dump's grid {recipe[0]} on {recipe[1]} "
                              f"is not the config's grid {grid.to_config()} "
                              f"on {grid.domain.to_config()}")
        return flow.ScalarField(grid, field.values).scaled(scale)
    raise ConfigError(f"unknown initial datum type {kind!r}; allowed: "
                      "ball, scaled-ball, annulus, dump")


def run_flow(args) -> int:
    config = _read_config(args.config)
    cfg, p, group, grid = _run_setup(config, None, None)
    v0 = _initial_field(config.get("initial", {"type": "ball"}), grid, p,
                        config.get("alpha"))
    traj = flow.evolve(v0, p, cfg, group)
    outdir = Path(config.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    rows = ["t,energy,sup"]
    rows += [f"{t:.10g},{e:.10g},{s:.10g}"
             for t, e, s in zip(traj.times, traj.energies, traj.sup_norms)]
    (outdir / "trajectory.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
    dump_field(outdir / "final.bin", traj.final, p=p)
    report = {"classification": traj.classification.value,
              "t_final": traj.t_final,
              "final_residual": traj.final_residual,
              "steps": int(len(traj.dts)),
              "energy_initial": float(traj.energies[0]),
              "energy_final": float(traj.energies[-1]),
              "energy_defects": traj.energy_defects,
              "nodal_counts": traj.nodal_counts}
    (outdir / "flow_report.json").write_text(_json(report),
                                             encoding="utf-8")
    print(_json(report))
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _audit_candidate(cand: flow.ScalarField, p: float, group, grid) -> dict:
    dec = nodal.decompose(cand)
    origin = (nodal.contains_origin(dec) if grid.origin_ring is not None
              else None)
    audit = {
        "elliptic_residual": spectrum.elliptic_residual(cand, p),
        "nodal_count": dec.n_domains,
        "boundary_contact": bool(nodal.nodal_line_touches_boundary(dec)),
        "origin_domain": origin,
        "origin_interior": origin is not None,
        "per_domain_pE": [p * r.energy
                          for r in nodal.per_domain_energy(cand, dec, p)],
    }
    if group is not None:
        audit["symmetry_defect"] = float(
            grid.symmetry_defect(cand.values, group))
    return audit, dec


def _stage_failure(report: dict, outdir: Path, message: str) -> int:
    """Write and print the report of a failed pipeline stage, and one
    stderr line; exit code 3."""
    (outdir / "pipeline_report.json").write_text(_json(report),
                                                 encoding="utf-8")
    print(_json(report))
    print(f"lef pipeline: {message}", file=sys.stderr)
    return 3


def run_pipeline(args) -> int:
    config = _read_config(args.config)
    cfg, p, group, grid = _run_setup(
        config, {"t_max": 120.0}, {"kind": "cyclic", "order": 4})
    domain = grid.domain
    scan_spec = config.get("scan", {})
    _check_keys("scan", scan_spec, ["ratios"])
    ratios = _scan_ratios(scan_spec)
    outdir = Path(config.get("outdir", "pipeline_out"))
    outdir.mkdir(parents=True, exist_ok=True)

    report: dict = {"p": p, "config": config}
    admissible = group is not None and check_admissible(group, domain)
    report["admissible"] = bool(admissible)
    if not admissible:
        print(_json(report))
        print(f"lef pipeline: the group {group} is not admissible on the "
              f"domain {domain.to_config()}", file=sys.stderr)
        return 2

    choice = _resolve_alpha(config.get("alpha", "optimal"), p)
    alpha = report["alpha"] = choice.alpha
    inner = radial.build_ball_solution_scaled(p, alpha, choice.ball)
    f1 = flow.field_from_radial(grid, inner)
    f2 = flow.field_from_radial(grid, choice.annulus, sign=-1.0)
    if not (np.any(f1.values) and np.any(f2.values)):
        # e.g. an annulus whose hole swallows the ball of radius e^{-alpha p}
        rho = math.exp(-alpha * p)
        report["failure"] = {"stage": "profiles", "ball_radius": rho,
                             "annulus_radii": [rho, 1.0],
                             "domain_radii": [domain.inner_radius,
                                              domain.bounding_radius]}
        return _stage_failure(
            report, outdir,
            f"profiles stage: the ball profile on r < {rho:.4g} or the "
            f"annulus profile on ({rho:.4g}, 1) is zero on every node of the "
            f"domain {domain.inner_radius:g} <= r <= "
            f"{domain.bounding_radius:g}")
    u1, t1n = energy.nehari_project(f1, p)
    u2, t2n = energy.nehari_project(f2, p)
    pE1 = p * energy.field_energy(u1, p).energy
    pE2 = p * energy.field_energy(u2, p).energy
    report["component_pE"] = {"ball": pE1, "annulus": pE2, "sum": pE1 + pE2}

    scan = flow.ray_scan(u1, u2, p, ratios=ratios,
                         config=cfg, group=group)
    n_rays = len(scan.all_results)
    report["scan"] = {
        "n_rays": n_rays,
        "success": scan.success,
        "rays": [(th, r if isinstance(r, str) else r.to_dict())
                 for th, r in scan.all_results],
    }
    if not scan.success:
        report["failure"] = {"stage": "scan", "n_rays": n_rays}
        return _stage_failure(
            report, outdir,
            f"scan stage: no sign-changing candidate on any of {n_rays} "
            f"rays")

    # the energy-consistent datum v0: the transition angle's threshold point
    chosen_res, chosen_theta = scan.chosen
    lam = chosen_res.lambda_star
    v0 = chosen_res.v0
    report["chosen"] = {"theta": chosen_theta,
                        "t1": lam * math.cos(chosen_theta),
                        "t2": lam * math.sin(chosen_theta),
                        "lambda_star": lam,
                        "bisection_width": chosen_res.bisection_width}
    report["candidate"] = scan.provenance()

    candidate = scan.candidate
    stages = [("v0", p * energy.field_energy(v0, p).energy),
              ("candidate", p * energy.field_energy(candidate, p).energy)]
    audit, dec = _audit_candidate(candidate, p, group, grid)
    report["audit"] = audit

    restarts = []
    while dec.n_domains > 2 and len(restarts) < 2:
        rescan = flow.restart_from_nodal_pair(candidate, dec, p, config=cfg,
                                              group=group)
        entry = {"success": rescan.success}
        if not rescan.success:
            restarts.append(entry)
            break
        candidate = rescan.candidate
        audit, dec = _audit_candidate(candidate, p, group, grid)
        entry["candidate"] = rescan.provenance()
        entry["audit"] = audit
        stages.append((f"restart_{len(restarts) + 1}",
                       p * energy.field_energy(candidate, p).energy))
        restarts.append(entry)
        report["audit"] = audit
    report["restarts"] = restarts
    report["restart_count"] = len(restarts)

    report["energy_ledger"] = {
        "stages": stages,
        "bound": energy.UPPER_BOUND_CONST,
        "nonincreasing": all(a >= b - 1e-9 for (_, a), (_, b)
                             in zip(stages, stages[1:])),
    }

    dump_field(outdir / "candidate.bin", candidate, p=p)
    dump_field(outdir / "v0.bin", v0, p=p)
    report["outputs"] = {"candidate": str(outdir / "candidate.bin"),
                         "v0": str(outdir / "v0.bin")}

    try:
        report["morse"] = _morse_report(candidate, p, group)
    except (spectrum.EigenSolveError, spectrum.NotSteadyError) as exc:
        report["failure"] = {"stage": "spectrum", "error": str(exc)}
        return _stage_failure(report, outdir, f"spectrum stage: {exc}")

    (outdir / "pipeline_report.json").write_text(
        _json(report), encoding="utf-8")
    print(_json(report))

    ok = (audit["elliptic_residual"] < cfg.residual_tol
          and not audit["boundary_contact"]
          and report["energy_ledger"]["nonincreasing"])
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _morse_report(field: flow.ScalarField, p: float, group,
                  k: int = 12) -> dict:
    """The Morse report of a steady field, with the half-domain eigenvalue
    and the residual of its odd extension."""
    out = spectrum.morse_index(field, p, group, k=k).to_dict()
    mu, info = spectrum.half_domain_mu(field, p)
    out["half_domain_mu"] = mu
    out["odd_extension_residual"] = info["odd_extension_residual"]
    return out


def run_spectrum(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    field, header = load_field(args.field)
    if args.p is None and "p" not in header:
        raise ConfigError("p not in dump header; pass --p")
    p = _exponent(args.p if args.p is not None else header["p"])
    group = None
    if args.group:
        kind, _, order = args.group.partition(":")
        group = _build_group({"kind": kind, "order": (
            int(order) if order.isdecimal() else order)})
        _realize(field.grid, group)
    try:
        out = _morse_report(field, p, group, args.k)
    except spectrum.NotSteadyError as exc:
        print(f"lef spectrum: {exc}", file=sys.stderr)
        return 4
    print(_json(out))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
    except ConfigError as exc:
        print(f"lef {args.command}: {exc}", file=sys.stderr)
        return 2
    except radial.RadialSolveError as exc:
        print(f"lef {args.command}: radial stage: {exc}", file=sys.stderr)
        return 3
    except spectrum.EigenSolveError as exc:
        print(f"lef {args.command}: spectrum stage: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
