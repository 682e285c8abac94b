"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear; without ``-s`` they show up in the captured output of any
failing criterion.
"""
import json
import math
import sys

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from lef import cli, energy, flow, geometry, nodal, radial, spectrum
from tests.conftest import ring_bump

EIGHT_PI_E = 8.0 * math.pi * math.e


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # also bypass pytest capture
        print(line, file=sys.__stdout__)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared pipeline run (criteria 8 and 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("pipeline")
    config = {
        "p": 8.0,
        "alpha": "optimal",
        "domain": {"type": "disk", "radius": 1.0},
        "grid": {"type": "polar", "n_r": 96, "n_theta": 32},
        "group": {"kind": "cyclic", "order": 4},
        "flow": {"t_max": 120.0},
        "seed": 0,
        "outdir": str(outdir),
    }
    cfg_path = outdir / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    exit_code = cli.main(["pipeline", "--config", str(cfg_path)])
    report = json.loads((outdir / "pipeline_report.json").read_text(
        encoding="utf-8"))
    candidate, _ = cli.load_field(outdir / "candidate.bin")
    return exit_code, report, candidate


def test_criterion_01_omega_closed_form():
    errs = []
    for p, alpha, b in ((10.0, 1.0, 1.0), (50.0, 0.2, 0.5)):
        prof = radial.omega_test_function(p, alpha, b)
        got = radial.radial_energy(prof).grad_norm_sq
        exact = radial.omega_energy_closed_form(p, alpha, b)
        errs.append(abs(got - exact) / exact)
    ok = all(e < 1e-6 for e in errs)
    verdict(1, ok, "log-profile Dirichlet energy vs closed form, rel errs "
            + ", ".join(f"{e:.2e}" for e in errs) + " (tol 1e-6)")


def test_criterion_02_ball_energy_limit():
    errs = []
    for p in (20.0, 50.0, 100.0, 200.0):
        val = p * radial.ball_energy(p).grad_norm_sq
        errs.append(abs(val - EIGHT_PI_E) / EIGHT_PI_E)
    ok = errs[-1] < 0.05 and all(a > b for a, b in zip(errs, errs[1:]))
    verdict(2, ok, "p * grad^2 of the ball solution vs 8 pi e: rel errs "
            + ", ".join(f"{e:.3f}" for e in errs)
            + " (last < 0.05, decreasing)")


def test_criterion_03_annulus_bound():
    p = 200.0
    a_bar = energy.minimize_f().alpha_bar
    prof = radial.solve_annulus(p, math.exp(-a_bar * p), 1.0)
    val = p * radial.radial_energy(prof).grad_norm_sq
    bound = 8.0 * math.pi * math.exp(2.0 * a_bar) / a_bar * 1.10
    ok = val <= bound
    verdict(3, ok, f"p grad^2 of the annulus solution {val:.3f} <= "
            f"1.10 * 8 pi e^(2 alpha)/alpha = {bound:.3f} at p = 200")


def test_criterion_04_constants_chain():
    opt = energy.minimize_f()
    f_fifth = energy.f_alpha(0.2)
    stat = abs(energy.f_alpha_prime(opt.alpha_bar))
    ok = (opt.f_value <= f_fifth
          and abs(f_fifth - 4.96960) < 1e-4
          and f_fifth <= 4.97
          and stat < 1e-8)
    verdict(4, ok, f"f(alpha_bar) = {opt.f_value:.6f} <= f(1/5) = "
            f"{f_fifth:.5f} <= 4.97, |f'(alpha_bar)| = {stat:.1e} < 1e-8")


def test_criterion_05_nehari_and_combination(disk_grid_medium):
    g = disk_grid_medium
    p = 5.0
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        v = flow.ScalarField(g, rng.standard_normal(g.n_nodes))
        u, _ = energy.nehari_project(v, p)
        worst = max(worst, energy.field_energy(u, p).nehari_residual)

    # gap-separated Nehari pair: supports do not even touch on the grid
    u1, _ = energy.nehari_project(ring_bump(g, 0.0, 0.35), p)
    u2, _ = energy.nehari_project(ring_bump(g, 0.55, 0.95, sign=-1.0), p)
    e_sum = (energy.field_energy(u1, p).energy
             + energy.field_energy(u2, p).energy)
    ts = np.linspace(0.0, 2.0, 41)
    combo_ok = True
    for t1 in ts:
        for t2 in ts:
            rep = energy.combined_energy(u1, u2, t1, t2, p)
            if rep.energy > e_sum + 1e-8:
                combo_ok = False
    ok = worst < 1e-10 and combo_ok
    verdict(5, ok, f"Nehari residual worst of 100 random fields {worst:.1e}"
            f" < 1e-10; combination bound on 41x41 (t1,t2) scan "
            f"{'holds' if combo_ok else 'violated'}")


def replayed_vdot_sq(v0, p: float, tr) -> np.ndarray:
    """||(v_{n+1} - v_n)/dt||_W^2 per accepted step of the trajectory ``tr``
    of v0, from its iterates replayed by ``flow.step``: bitwise the
    trajectory's own."""
    g, v, out = v0.grid, v0.values, []
    for dt in tr.dts:
        nxt = flow.step(flow.ScalarField(g, v), p, dt).values
        out.append(float(g.weights @ ((nxt - v) / dt) ** 2))
        v = nxt
    assert np.array_equal(v, tr.final.values)
    return np.array(out)


def test_criterion_06_lyapunov_dissipation(ball_field_p5):
    mono_ok = True
    rate_worst = 0.0
    # dissipation-rate audit on decay-side runs; monotonicity also on the
    # blow-up side
    for lam, check_rate in ((0.5, True), (0.9, True), (1.3, False)):
        cfg = flow.FlowConfig(dt_max=0.01, t_max=50.0)
        v0 = ball_field_p5.scaled(lam)
        tr = flow.evolve(v0, 5.0, cfg)
        dE = np.diff(tr.energies)
        scale = np.maximum(np.abs(tr.energies[:-1]), 1.0)
        if not np.all(dE <= 1e-10 * scale):
            mono_ok = False
        if check_rate:
            rate = dE / tr.dts
            vdot_sq = replayed_vdot_sq(v0, 5.0, tr)
            n = len(vdot_sq)
            sl = slice(n // 2, n - 1)  # smooth half, classification step cut
            rel = np.abs(rate[sl] + vdot_sq[sl]) / np.maximum(
                vdot_sq[sl], 1e-300)
            rate_worst = max(rate_worst, float(rel.max()))
    ok = mono_ok and rate_worst < 0.10
    verdict(6, ok, f"energy nonincreasing per accepted step (slack 1e-10); "
            f"dE/dt vs -||v_t||^2 worst rel dev {rate_worst:.3f} < 0.10")


@pytest.mark.parametrize("dt_max", [0.05, 1.0])
def test_eyre_inequality_at_any_step_size(dt_max):
    """The IMEX step is Eyre's convex splitting, so even with c_stab = 1e9
    (dt = dt_max on every step) each step lowers the energy by at least
    dt ||(v_{n+1} - v_n)/dt||_W^2, up to roundoff."""
    g = geometry.PolarGrid(64, 32)
    ball = flow.field_from_radial(g, radial.solve_ball(5.0))
    cfg = flow.FlowConfig(c_stab=1e9, dt_max=dt_max)
    for lam, expected in ((0.5, flow.Classification.DECAY),
                          (1.02, flow.Classification.BLOWUP)):
        v0 = ball.scaled(lam)
        tr = flow.evolve(v0, 5.0, cfg)
        assert tr.classification == expected
        assert len(tr.dts) >= 2 and np.all(tr.dts == dt_max)
        dE = np.diff(tr.energies)
        roundoff = 1e-10 * np.maximum(np.abs(tr.energies[:-1]), 1.0)
        assert np.all(dE <= -tr.dts * replayed_vdot_sq(v0, 5.0, tr)
                      + roundoff)
        assert tr.energy_defects == 0


def test_criterion_07_threshold_oracle_equivalence():
    p = 5.0
    g = geometry.PolarGrid(256, 64)
    r = np.hypot(g.xy[:, 0], g.xy[:, 1])
    direction, _ = energy.nehari_project(
        flow.ScalarField(g, 1.0 - r ** 2), p)
    res = flow.threshold_bisect(direction, p, flow.FlowConfig(t_max=50.0))
    cand = res.snapshot.field
    exact = radial.solve_ball(p)(r)
    err = float(np.max(np.abs(np.abs(cand.values) - exact)) / exact.max())
    ok = err < 0.02 and res.bisection_width <= 1e-3
    verdict(7, ok, f"threshold omega-candidate vs 1D ball solution: "
            f"Linf rel err {err:.2e} < 0.02 "
            f"(lambda* = {res.lambda_star:.4f})")


def test_criterion_08_pipeline_property_suite(pipeline_run):
    exit_code, report, _ = pipeline_run
    audit = report["audit"]
    stages = dict(report["energy_ledger"]["stages"])
    p_e_candidate = stages["candidate"]
    p_e_v0 = stages["v0"]
    cap = energy.UPPER_BOUND_CONST * 1.10

    checks = {
        "exit 0": exit_code == 0,
        "sign-changing (2 domains expected)": audit["nodal_count"] == 2,
        "elliptic residual < 1e-6": audit["elliptic_residual"] < 1e-6,
        "symmetry defect < 1e-8": audit["symmetry_defect"] < 1e-8,
        "no boundary contact": audit["boundary_contact"] is False,
        "origin interior to one domain": audit["origin_interior"] is True,
        "ledger chain": p_e_candidate <= p_e_v0 + 1e-9 and p_e_v0 <= cap,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    verdict(8, ok, f"disk C4 p=8 pipeline: {audit['nodal_count']} domains, "
            f"residual {audit['elliptic_residual']:.1e}, ledger "
            f"{p_e_candidate:.2f} <= {p_e_v0:.2f} <= {cap:.2f}"
            + (f"; failed: {failed}" if failed else ""))


def test_criterion_09_morse_bound_on_convex_domain(pipeline_run):
    _, _, candidate = pipeline_run
    p = 8.0
    dom = geometry.squircle_mask(1.0, 4.0)
    assert spectrum.convex_in_direction(dom, 0.0)
    assert spectrum.convex_in_direction(dom, math.pi / 2)

    # continue the disk state onto the squircle: radial ring means feed a
    # monotone interpolant, then Newton converges on the new domain
    pg = candidate.grid
    means = candidate.values.reshape(pg.n_r, pg.n_theta).mean(axis=1)
    interp = PchipInterpolator(pg.r_nodes, means, extrapolate=False)
    sq = geometry.CartesianMaskedGrid(dom, 128)
    r = np.hypot(sq.xy[:, 0], sq.xy[:, 1])
    vals = np.nan_to_num(interp(r), nan=0.0)
    G = geometry.dihedral(4)
    seed = flow.ScalarField(sq, sq.symmetrize(vals, G))
    u, res = spectrum.newton_polish(seed, p)
    u = flow.ScalarField(sq, sq.symmetrize(u.values, G))
    res = spectrum.elliptic_residual(u, p)

    rep = spectrum.morse_index(u, p, G)
    mu, info = spectrum.half_domain_mu(u, p)
    ok = (res < 1e-6
          and rep.morse_index >= 3
          and rep.symmetric_morse_index >= 2
          and mu < 0.0
          and info["odd_extension_residual"] < 1e-6)
    verdict(9, ok, f"D4 squircle state: residual {res:.1e}, morse "
            f"{rep.morse_index} >= 3, symmetric {rep.symmetric_morse_index}"
            f" >= 2, half-domain mu {mu:.1f} < 0 (odd-extension residual "
            f"{info['odd_extension_residual']:.1e} < 1e-6)")


def test_candidate_provenance(pipeline_run):
    """The report names the candidate's ray, its source (a polished
    hovering snapshot or a polished threshold datum) and its residual, as
    that ray's threshold result records them."""
    _, report, _ = pipeline_run
    prov = report["candidate"]
    assert set(prov) == {"theta", "source", "residual"}
    ray = dict(report["scan"]["rays"])[prov["theta"]]
    slot = {"snapshot": "residual", "datum": "datum_residual"}
    assert ray[slot[prov["source"]]] == prov["residual"] <= 1e-6


def test_scan_runs_on_the_rings(pipeline_run):
    """The scan's data are radial, so it runs on the orbit grid of the
    polar grid's symmetry group D_32: one unknown per ring of 96 x 32."""
    _, report, _ = pipeline_run
    assert report["scan"]["unknowns"] == 96


def test_an_accepted_candidate_passes_the_audit_residual(pipeline_run):
    """One rule decides "steady" on both grids: the scan accepts the
    candidate by its residual on the orbit grid, and the audit reads the
    lifted candidate's residual on the full grid of 3072 nodes."""
    _, report, candidate = pipeline_run
    assert report["audit"]["unknowns"] == candidate.grid.n_nodes == 3072
    for residual in (report["candidate"]["residual"],
                     report["audit"]["elliptic_residual"]):
        assert residual <= spectrum.STEADY_RESIDUAL_TOL


def test_morse_index_oracle_two_nodal_disk(pipeline_run):
    """De Marchis-Ianni-Pacella (Ann. Mat. Pura Appl. 2016) give Morse
    index 12 for the two-nodal radial solution in the disk; 4 is the
    measured C4-symmetric index.  The index is an inertia count, so asking
    for only k = 2 eigenvalues leaves it unchanged."""
    _, report, candidate = pipeline_run
    assert report["morse"]["morse_index"] == 12
    assert report["morse"]["symmetric_morse_index"] == 4
    rep = spectrum.morse_index(candidate, 8.0, geometry.cyclic(4), k=2)
    assert (rep.morse_index, rep.symmetric_morse_index) == (12, 4)
    assert len(rep.eigenvalues) == len(rep.symmetric_eigenvalues) == 2


def test_lambda_1_on_the_orbit_grid_is_the_full_grid_one(pipeline_run):
    """The report's lambda_1 is found on the C4 orbit grid; the full
    grid's lowest eigenvalue is the same (spectrum.morse_index)."""
    _, report, candidate = pipeline_run
    A = spectrum.assemble_linearized(candidate, 8.0)
    lam1, _ = spectrum.lowest_eigenpair(A, candidate.grid.weights)
    assert report["morse"]["lambda_1"] == pytest.approx(lam1, rel=1e-10)


def test_criterion_10_equivariance_and_symmetry(disk_grid_small):
    g = disk_grid_small
    p = 3.0
    prof = radial.solve_ball(p)
    base = flow.field_from_radial(g, prof)
    th = np.arctan2(g.xy[:, 1], g.xy[:, 0])
    r = np.hypot(g.xy[:, 0], g.xy[:, 1])
    v0 = flow.ScalarField(
        g, 0.8 * base.values * (1.0 + 0.2 * np.cos(4 * th)
                                * np.sin(np.pi * r)))
    G = geometry.cyclic(4)
    orbits = g.quotient(G)

    cfg = flow.FlowConfig(dt_max=0.02, t_max=2.0, decay_factor=0.0)
    tp = flow.evolve(v0.on(orbits), p, cfg)
    tm = flow.evolve((-v0).on(orbits), p, cfg)
    odd_dev = float(np.max(np.abs(tp.final.values + tm.final.values)))
    odd_ok = odd_dev <= 1e-13 * tp.final.sup

    dt = 0.01
    long_cfg = flow.FlowConfig(dt_max=dt, t_max=dt * 10_000,
                               decay_factor=0.0, c_stab=1e9)
    tr = flow.evolve(v0.on(orbits), p, long_cfg)
    steps = len(tr.dts)
    defect = g.symmetry_defect(tr.final.lifted().values, G) / tr.final.sup
    sym_ok = steps >= 10_000 and defect < 1e-8
    verdict(10, odd_ok and sym_ok,
            f"evolve(-v0) = -evolve(v0) to {odd_dev:.1e}; symmetry defect "
            f"after {steps} steps {defect:.1e} < 1e-8 * sup")


def test_report_records_the_alpha_search(pipeline_run):
    """With alpha 'optimal' the report gives the number of alphas at which
    profiles were solved and the budget's derivative T' at the chosen
    alpha, its zero to ALPHA_XATOL (T'' is about 5.5e3 at p = 8)."""
    _, report, _ = pipeline_run
    search = report["alpha_search"]
    assert set(search) == {"solves", "derivative"}
    assert search["solves"] >= 2
    assert abs(search["derivative"]) < 1e4 * radial.ALPHA_XATOL
