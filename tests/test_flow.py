import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lapack

from lef import energy, flow, geometry, radial, spectrum
from lef.flow import Classification, FlowConfig
from tests.conftest import ring_bump


@pytest.fixture(scope="module")
def grid():
    return geometry.PolarGrid(48, 24)


@pytest.fixture(scope="module")
def ball_field(grid):
    return flow.field_from_radial(grid, radial.solve_ball(5.0))


class TestStep:
    def test_pure_heat_damps_first_mode_at_oracle_rate(self, grid):
        # e^{-lambda_1 t} decay of the first eigenmode, lambda_1 = j_{0,1}^2
        z = flow.ScalarField(grid, np.zeros(grid.n_nodes))
        A = spectrum.assemble_linearized(z, 2.0)
        lam, phi = spectrum.lowest_eigenpair(A, grid.weights)
        v = flow.ScalarField(grid, phi)
        dt = 1e-3
        out = flow.step(v, 2.0, dt, power=np.zeros(grid.n_nodes))
        # implicit Euler: division by (1 + lam dt)
        ratio = out.values / v.values
        assert np.allclose(ratio, 1.0 / (1.0 + lam * dt), rtol=1e-6)

    def test_invalid_dt(self, ball_field):
        with pytest.raises(ValueError):
            flow.step(ball_field, 5.0, 0.0)


RING_GRIDS = {
    "polar-96x32": lambda: geometry.PolarGrid(96, 32),
    "polar-48x16": lambda: geometry.PolarGrid(48, 16),
    "annulus-40x16": lambda: geometry.PolarGrid(40, 16, r_in=0.3),
}


def _ring_fields(g):
    """A smooth ring-constant field (the p = 5 ball solution, or a sine
    bump across the annulus) and a random one, on the ring grid of g."""
    rings = g.quotient(g.symmetry_group)
    r = np.hypot(rings.xy[:, 0], rings.xy[:, 1])
    smooth = (radial.solve_ball(5.0)(r) if g.r_in == 0.0
              else np.sin(math.pi * (r - g.r_in) / (g.r_out - g.r_in)))
    noise = np.random.default_rng(0).standard_normal(rings.n_nodes)
    return rings, (smooth, noise)


def _exact_tridiagonal_solve(diagonal, off_diagonal, b) -> np.ndarray:
    """The solution of the symmetric tridiagonal system, in exact rational
    arithmetic on the floats given, rounded once."""
    d, e = [Fraction(x) for x in diagonal], [Fraction(x) for x in off_diagonal]
    y = [Fraction(x) for x in b]
    for i in range(1, len(d)):
        m = e[i - 1] / d[i - 1]
        d[i] -= m * e[i - 1]
        y[i] -= m * y[i - 1]
    x = [y[-1] / d[-1]]
    for i in range(len(d) - 2, -1, -1):
        x.insert(0, (y[i] - e[i] * x[0]) / d[i])
    return np.array([float(t) for t in x])


def _refined_solve(mat, lu, b) -> np.ndarray:
    """The solution of mat x = b to extended precision: iterative refinement
    of SuperLU's solve with residuals in long double, rounded once."""
    wide = mat.astype(np.longdouble)
    x = lu.solve(b).astype(np.longdouble)
    for _ in range(4):
        x += lu.solve((b - wide @ x).astype(float))
    return x.astype(float)


class TestBandPath:
    """Every grid with a band of K in node order (``stiffness_band``)
    factors the step matrix W + dt K from it.  On the ring grid of a polar
    grid the band is tridiagonal (kd = 1): the step factors it by LAPACK's
    tridiagonal LDL^T, bit for bit the ``dpttrf`` of K's own diagonals,
    and the Dirichlet form sums over faces.  Both are checked against
    exact rational arithmetic on the same floats, and against SuperLU and
    v . (K v) where those are themselves that accurate.  On a cartesian
    grid and its orbit grids the band is wider and the step factors it by
    band Cholesky, checked against an extended-precision solve, SuperLU
    and whole flows run through SuperLU; polar grids keep SuperLU."""

    @pytest.mark.parametrize("name", RING_GRIDS)
    def test_band_solve_equals_superlu(self, name):
        rings, fields = _ring_fields(RING_GRIDS[name]())
        K = rings.stiffness
        assert rings.stiffness_band.kd == 1
        for dt in (1e-6, 1e-3, 0.05):
            factor = flow._lu_for(rings, dt)
            assert isinstance(factor, flow._BandFactor) and factor.kd == 1
            diagonal, off_diagonal = (rings.weights + dt * K.diagonal(),
                                      dt * K.diagonal(1))
            d, e, info = lapack.dpttrf(diagonal, off_diagonal)
            assert info == 0
            lu = flow.spla.splu((flow.sp.diags(rings.weights)
                                 + dt * rings.stiffness).tocsc())
            for v in fields:
                b = rings.weights * v
                x, ref = factor.solve(b), lu.solve(b)
                assert np.array_equal(x, lapack.dpttrs(d, e, b)[0])
                exact = _exact_tridiagonal_solve(diagonal, off_diagonal, b)
                scale = np.max(np.abs(exact))
                # at dt = 0.05 W + dt K has condition up to 8e3, and
                # SuperLU too is 2e-15 from the exact solution
                assert np.max(np.abs(x - exact)) <= 4e-15 * scale
                if dt <= 1e-3:
                    assert np.max(np.abs(x - ref)) <= 1e-15 * scale

    @pytest.mark.parametrize("name", RING_GRIDS)
    def test_band_dirichlet_form_equals_the_sparse_form(self, name):
        rings, (smooth, noise) = _ring_fields(RING_GRIDS[name]())
        K = rings.stiffness
        diagonal, off_diagonal = K.diagonal(), K.diagonal(1)
        row_sums = diagonal.copy()
        row_sums[:-1] += off_diagonal
        row_sums[1:] += off_diagonal
        for v in (smooth, noise):
            form = rings.dirichlet_form(v)
            # the face sum from K's own diagonals, bit for bit: the band's
            # rows are contiguous and its row sums keep this order
            jump = v[1:] - v[:-1]
            assert form == float(row_sums @ (v * v)
                                 - off_diagonal @ (jump * jump))
            exact = float(sum(Fraction(d) * Fraction(x) ** 2
                              for d, x in zip(K.diagonal(), v))
                          + 2 * sum(Fraction(e) * Fraction(x) * Fraction(y)
                                    for e, x, y in zip(K.diagonal(1), v,
                                                       v[1:])))
            assert abs(form - exact) <= 1e-15 * exact
        # v . (K v) cancels on a smooth field (2e-14 from the exact value
        # on 48x16), not on a random one
        ref = float(noise @ (K @ noise))
        assert abs(rings.dirichlet_form(noise) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("grid_of", [
        lambda: geometry.PolarGrid(24, 16),
        lambda: geometry.PolarGrid(24, 16).quotient(geometry.cyclic(4)),
    ], ids=["polar", "polar-c4-orbits"])
    def test_other_grids_keep_superlu(self, monkeypatch, grid_of):
        g = grid_of()
        assert g.stiffness_band is None
        calls, plain = [], flow.spla.splu

        def splu(mat):
            calls.append(mat.shape)
            return plain(mat)

        monkeypatch.setattr(flow, "spla", SimpleNamespace(splu=splu))
        flow._lu_for(g, 0.01)
        assert calls == [(g.n_nodes, g.n_nodes)]
        v = np.random.default_rng(1).standard_normal(g.n_nodes)
        assert g.dirichlet_form(v) == float(v @ (g.stiffness @ v))

    @pytest.mark.parametrize("grid_of", [
        lambda: geometry.CartesianMaskedGrid(geometry.DomainSpec.disk(1.0),
                                             24),
        lambda: geometry.CartesianMaskedGrid(
            geometry.squircle_mask(1.0, 4.0), 24).quotient(
                geometry.dihedral(4)),
        lambda: geometry.CartesianMaskedGrid(
            geometry.squircle_mask(1.0, 4.0), 64),
    ], ids=["cartesian", "squircle-d4-orbits", "squircle-64"])
    def test_cartesian_grids_take_the_band_cholesky(self, monkeypatch,
                                                    grid_of):
        g = grid_of()
        n = (g.parent if isinstance(g, geometry.OrbitGrid) else g).n
        coo = g.stiffness.tocoo()
        kd = int(np.max(np.abs(coo.row - coo.col)))
        assert 1 < kd <= n and g.stiffness_band.kd == kd
        calls, plain = [], flow.spla.splu
        monkeypatch.setattr(flow, "spla", SimpleNamespace(
            splu=lambda mat: calls.append(mat.shape)))
        # a smooth field and a random one, as on the ring grids
        fields = (ring_bump(g, 0.1, 0.9).values,
                  np.random.default_rng(2).standard_normal(g.n_nodes))
        for dt in (1e-6, 1e-3, 0.05):
            factor = flow._lu_for(g, dt)
            assert isinstance(factor, flow._BandFactor) and factor.kd == kd
            mat = (flow.sp.diags(g.weights) + dt * g.stiffness).tocsc()
            lu = plain(mat)
            for v in fields:
                b = g.weights * v
                x, ref = factor.solve(b), lu.solve(b)
                exact = _refined_solve(mat, lu, b)
                scale = np.max(np.abs(exact))
                assert np.max(np.abs(x - exact)) <= 1e-14 * scale
                # at dt = 0.05 on squircle 64 W + dt K has condition 330:
                # the band's smooth-field solve is 9e-15 from the exact
                # one, SuperLU's 6e-15 on the other side
                if dt <= 1e-3 or g.n_nodes < 1000:
                    assert np.max(np.abs(x - ref)) <= 1e-14 * scale
        assert calls == []
        v = fields[1]
        assert g.dirichlet_form(v) == float(v @ (g.stiffness @ v))

    def test_band_flow_equals_the_superlu_flow(self, monkeypatch):
        # the same runs with every step solve forced through SuperLU are the
        # oracle of the band route on the squircle's D4 orbit grid
        g = geometry.CartesianMaskedGrid(geometry.squircle_mask(1.0, 4.0), 24)
        G = geometry.dihedral(4)
        orbits, cfg = g.quotient(G), FlowConfig(t_max=20.0)
        data = [_invariant_datum(g, G).on(orbits).scaled(s)
                for s in (0.5, 4.0)]
        band = [flow.evolve(v0, 3.0, cfg) for v0 in data]
        factors = {}

        def superlu_for(grid, dt):
            if dt not in factors:
                factors[dt] = flow.spla.splu(
                    (flow.sp.diags(grid.weights) + dt * grid.stiffness).tocsc())
            return factors[dt]

        monkeypatch.setattr(flow, "_lu_for", superlu_for)
        for v0, tr in zip(data, band):
            ref = flow.evolve(v0, 3.0, cfg)
            assert tr.classification == ref.classification
            assert len(tr.dts) == len(ref.dts) > 0
            dev = np.max(np.abs(tr.final.values - ref.final.values))
            assert dev <= 1e-12 * ref.final.sup
        assert {tr.classification for tr in band} == {
            Classification.DECAY, Classification.BLOWUP}

    def test_a_matrix_that_is_not_positive_definite_raises(self):
        # upper band storage, kd = 1, of [[1, 0.5], [0.5, -1]]
        with pytest.raises(RuntimeError, match="dpttrf"):
            flow._BandFactor(np.array([[0.0, 0.5], [1.0, -1.0]]))

    def test_a_band_that_is_not_positive_definite_raises(self):
        # upper band storage, kd = 2, of [[1, 0, 0.5], [0, 1, 0],
        # [0.5, 0, -1]]
        with pytest.raises(RuntimeError, match="dpbtrf"):
            flow._BandFactor(np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                       [1.0, 1.0, -1.0]]))


class TestEvolve:
    def test_small_data_decay(self, ball_field):
        tr = flow.evolve(ball_field.scaled(0.5), 5.0, FlowConfig(t_max=50.0))
        assert tr.classification == Classification.DECAY
        assert tr.sup_norms[-1] < 1e-5 * tr.sup_norms[0]

    def test_decayed_field_is_never_steady(self):
        # the field decays past the underflow of its squared norm (about
        # 1e-162) long before it falls below decay_factor * sup0: its
        # residual is then inf, not 0, and the run ends as a decay
        g = geometry.PolarGrid(16, 8)
        v = flow.field_from_radial(g, radial.solve_ball(5.0)).scaled(0.5)
        tr = flow.evolve(v, 5.0, FlowConfig(t_max=1000.0, dt_max=0.5,
                                            decay_factor=1e-300))
        assert tr.classification == Classification.DECAY
        assert tr.final_residual == math.inf

    def test_large_data_blowup(self, ball_field):
        tr = flow.evolve(ball_field.scaled(1.8), 5.0, FlowConfig(t_max=50.0))
        assert tr.classification == Classification.BLOWUP

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_rate_past_the_float_range_is_a_blowup(self, ball_field):
        # p sup^(p-1) overflows a float: the step size underflows at t = 0
        # (the energy of so large a datum overflows too, with warnings)
        tr = flow.evolve(ball_field.scaled(1e300 / ball_field.sup), 5.0)
        assert tr.classification == Classification.BLOWUP
        assert len(tr.dts) == 0 and tr.t_final == 0.0

    def test_steady_state_detected(self, ball_field):
        u, res = spectrum.newton_polish(ball_field, 5.0)
        assert res < 1e-10
        tr = flow.evolve(u, 5.0, FlowConfig(t_max=5.0))
        assert tr.classification == Classification.STEADY
        assert tr.final_residual < 1e-6

    def test_energy_monotone_along_trajectories(self, ball_field):
        for lam in (0.5, 0.9, 1.3):
            tr = flow.evolve(ball_field.scaled(lam), 5.0,
                             FlowConfig(t_max=20.0))
            dE = np.diff(tr.energies)
            scale = np.abs(tr.energies[:-1])
            assert np.all(dE <= 1e-10 * np.maximum(scale, 1.0))

    def test_max_time_classification(self, ball_field):
        tr = flow.evolve(ball_field.scaled(0.99), 5.0, FlowConfig(t_max=0.3))
        assert tr.classification == Classification.MAXTIME
        assert tr.t_final >= 0.3

    def test_zero_datum_is_steady(self, grid):
        z = flow.ScalarField(grid, np.zeros(grid.n_nodes))
        tr = flow.evolve(z, 5.0)
        assert tr.classification == Classification.STEADY

    def test_nodal_recording(self, grid):
        v = ring_bump(grid, 0.1, 0.9)
        cfg = FlowConfig(t_max=1.0, record_nodal_every=5)
        tr = flow.evolve(v.scaled(0.5), 5.0, cfg)
        assert len(tr.nodal_counts) > 0
        assert all(c >= 1 for _, c in tr.nodal_counts)


class TestThresholdBisect:
    def test_ball_direction_threshold_near_one(self, ball_field,
                                               monkeypatch):
        # the steady state itself separates decay from blow-up along its ray
        u, _ = spectrum.newton_polish(ball_field, 5.0)
        direction, _ = energy.nehari_project(u, 5.0)
        cfg = FlowConfig(t_max=40.0)
        monkeypatch.setattr(flow, "LAMBDA_INIT", 0.7)
        res = flow.threshold_bisect(direction, 5.0, cfg, polish=False)
        assert abs(res.lambda_star - 1.0) < 0.01
        assert res.bisection_width <= 1e-3 * res.lambda_star

    def test_unbracketable_direction_raises(self, grid, monkeypatch):
        # a tiny bump whose blow-up scale exceeds the bracket budget
        v = ring_bump(grid, 0.45, 0.55).scaled(1e-3)
        cfg = FlowConfig(t_max=0.5)
        monkeypatch.setattr(flow, "MAX_BRACKET", 2)
        with pytest.raises(flow.BracketError):
            flow.threshold_bisect(v, 5.0, cfg)

    # (steady lambda, threshold of the other probes, expected probe lambdas)
    STEADY_CASES = {
        "first probe": (1.0, 0.3, [1.0]),
        "halving": (0.5, 0.3, [1.0, 0.5]),
        "doubling": (2.0, 3.0, [1.0, 2.0]),
        "bisection": (1.5, 1.7, [1.0, 2.0, 1.5]),
    }

    @pytest.mark.parametrize("case", STEADY_CASES)
    def test_a_steady_probe_ends_the_search_at_its_lambda(self, monkeypatch,
                                                          case):
        # probes decay below the threshold and blow up above it, except at
        # the steady lambda
        steady, threshold, expected = self.STEADY_CASES[case]

        def fake(v0, p, config, certify_decay=False):
            lam = float(v0.values[0])
            cls = (Classification.STEADY if lam == steady
                   else Classification.BLOWUP if lam > threshold
                   else Classification.DECAY)
            return flow.Trajectory(np.array([0.0]), np.array([0.0]),
                                   np.array([lam]), np.array([]), cls, v0,
                                   math.inf)

        monkeypatch.setattr(flow, "evolve", fake)
        direction = flow.ScalarField(object(), np.array([1.0]))
        res = flow.threshold_bisect(direction, 5.0, polish=False)
        assert [lam for lam, _ in res.probes] == expected
        assert res.probes[-1][1] == Classification.STEADY
        assert res.lambda_star == steady
        assert res.bisection_width == 0.0


@pytest.fixture(scope="module", params=["disk-c4", "squircle-d4"])
def grid_and_group(request):
    if request.param == "disk-c4":
        return geometry.PolarGrid(24, 16), geometry.cyclic(4)
    return (geometry.CartesianMaskedGrid(geometry.squircle_mask(), 24),
            geometry.dihedral(4))


def _invariant_datum(grid, G):
    """A G-invariant, non-radial bump (exactly constant on orbits)."""
    th = np.arctan2(grid.xy[:, 1], grid.xy[:, 0])
    vals = ring_bump(grid, 0.1, 0.9).values * (1.0 + 0.3 * np.cos(4 * th))
    return flow.ScalarField(grid, vals).on(grid.quotient(G)).lifted()


class TestOrbitGrid:
    def test_restrict_then_lift_is_symmetrize(self, grid_and_group):
        g, G = grid_and_group
        orbits = g.quotient(G)
        assert g.quotient(G) is orbits
        assert orbits.n_nodes < g.n_nodes
        v = flow.ScalarField(g, np.random.default_rng(5).standard_normal(
            g.n_nodes))
        on = v.on(orbits)
        assert on.grid is orbits and on.lifted().grid is g
        assert np.max(np.abs(on.lifted().values
                             - g.symmetrize(v.values, G))) <= 1e-14

    def test_on_and_lifted_are_identities_on_their_own_grid(
            self, grid_and_group):
        g, G = grid_and_group
        v = _invariant_datum(g, G)
        c = v.on(g.quotient(G))
        assert v.on(g) is v and v.lifted() is v
        assert c.on(c.grid) is c
        with pytest.raises(ValueError, match="orbit grid of it"):
            c.on(g)
        with pytest.raises(ValueError, match="orbit grid of it"):
            v.on(geometry.PolarGrid(8, 8).quotient(G))

    def test_energy_and_residual_match_the_lifted_field(self, grid_and_group):
        g, G = grid_and_group
        c = _invariant_datum(g, G).on(g.quotient(G))
        v = c.lifted()
        assert energy.field_energy(c, 3.0).energy == pytest.approx(
            energy.field_energy(v, 3.0).energy, rel=1e-12)
        assert spectrum.elliptic_residual(c, 3.0) == pytest.approx(
            spectrum.elliptic_residual(v, 3.0), rel=1e-12)

    def test_orbit_grid_runs_match_the_full_grid(self, grid_and_group):
        # the full-grid runs of an invariant datum are the oracle of the
        # orbit-grid flow and threshold bisection, lifted
        g, G = grid_and_group
        orbits = g.quotient(G)
        cfg = FlowConfig(t_max=20.0)
        for scale in (0.5, 4.0):
            v0 = _invariant_datum(g, G).scaled(scale)
            reduced = flow.evolve(v0.on(orbits), 3.0, cfg)
            full = flow.evolve(v0, 3.0, cfg)
            assert reduced.final.grid is orbits
            assert reduced.classification == full.classification
            assert len(reduced.dts) == len(full.dts)
            dev = np.max(np.abs(reduced.final.lifted().values
                                - full.final.values))
            assert dev <= 1e-10 * full.final.sup
        direction = _invariant_datum(g, G)
        reduced = flow.threshold_bisect(direction.on(orbits), 3.0, cfg,
                                        width_tol=1e-2)
        full = flow.threshold_bisect(direction, 3.0, cfg, width_tol=1e-2)
        assert reduced.v0.grid is orbits
        assert reduced.probes == full.probes
        assert reduced.lambda_star == full.lambda_star
        assert reduced.snapshot.residual == pytest.approx(
            full.snapshot.residual, rel=1e-6, abs=1e-12)


@pytest.fixture(scope="module")
def profiles_p8():
    return radial.optimal_alpha(8.0)


@pytest.mark.parametrize("grid_of", [
    lambda: geometry.PolarGrid(24, 16),
    lambda: geometry.CartesianMaskedGrid(geometry.DomainSpec.disk(1.0), 24),
], ids=["polar-24x16", "cartesian-24-disk"])
def test_scan_does_not_depend_on_the_orbit_grid_it_runs_on(profiles_p8,
                                                           grid_of):
    """The pipeline's radial data u1, u2 are invariant under the grid's
    whole symmetry group, so the scan on its orbit grid gives the verdicts
    of the scan on the C4 orbit grid, and the same fields to roundoff."""
    g, p, choice = grid_of(), 8.0, profiles_p8
    inner = radial.build_ball_solution_scaled(p, choice.alpha, choice.ball)
    u1, _ = energy.nehari_project(flow.field_from_radial(g, inner), p)
    u2, _ = energy.nehari_project(
        flow.field_from_radial(g, choice.annulus, sign=-1.0), p)
    c4 = geometry.cyclic(4)
    scans = [flow.ray_scan(u1.on(orbits), u2.on(orbits), p,
                           config=FlowConfig(t_max=120.0))
             for orbits in (g.quotient(c4), g.quotient(g.symmetry_group))]
    assert g.quotient(g.symmetry_group).n_nodes < g.quotient(c4).n_nodes

    def source(res):
        cand = res.accepted()
        return None if cand is None else cand.source

    assert len(scans[0].all_results) == len(scans[1].all_results)
    for (theta_a, ray_a), (theta_b, ray_b) in zip(*(s.all_results
                                                    for s in scans)):
        assert theta_a == theta_b
        assert isinstance(ray_a, flow.ThresholdResult)
        assert ray_a.probes == ray_b.probes
        assert ray_a.lambda_star == ray_b.lambda_star
        assert ray_a.blowup_sign == ray_b.blowup_sign
        assert source(ray_a) == source(ray_b)
    assert scans[0].candidate[0].source == scans[1].candidate[0].source
    for field_of in (lambda s: s.chosen[0].v0,
                     lambda s: s.candidate[0].field):
        va, vb = (field_of(s).lifted().values for s in scans)
        assert np.max(np.abs(va - vb)) <= 1e-9 * np.max(np.abs(va))
    for s in scans:
        assert g.symmetry_defect(s.candidate[0].field.lifted().values,
                                 c4) == 0.0


THETA_STAR = 0.77
FAN = np.linspace(0.1, math.pi / 2 - 0.1, 7)   # the default scan angles
N_HALVINGS = 8   # ceil(log2((FAN[1] - FAN[0]) / WIDTH_TOL))


def _angle_sign(theta):
    return int(np.sign(theta - THETA_STAR))


def _fan_index(theta):
    """Index of the fan angle that theta (an atan2 angle) is, or None."""
    hits = np.flatnonzero(np.abs(FAN - theta) < 1e-12)
    return int(hits[0]) if hits.size else None


def _ray(direction, sign, omega=None, residual=math.inf, datum=None):
    """A fake ray's ThresholdResult: blow-up sign, omega candidate and
    its residual, and a converged datum polish."""
    return flow.ThresholdResult(
        1.0, direction, flow.WIDTH_TOL, [], sign,
        None if omega is None else flow.Candidate(omega, residual,
                                                  "snapshot"),
        None if datum is None else flow.Candidate(datum, 1e-9, "datum"))


@pytest.fixture
def fake_rays(monkeypatch):
    """Replace threshold_bisect by a fake on a two-node stand-in grid.

    u1 and u2 are the unit vectors, so a ray's angle is the polar angle of
    its direction; ``rule(theta)`` gives the blow-up sign of the ray, a
    ThresholdResult, or raises.  Returns (u1, u2, probes, install); each
    probe is (angle, polish flag).
    """
    grid = object()
    u1 = flow.ScalarField(grid, np.array([1.0, 0.0]))
    u2 = flow.ScalarField(grid, np.array([0.0, 1.0]))
    probes = []

    def install(rule=_angle_sign):
        def fake(direction, p, config, polish=True):
            theta = math.atan2(direction.values[1], direction.values[0])
            probes.append((theta, polish))
            out = rule(theta)
            if isinstance(out, flow.ThresholdResult):
                return out
            return _ray(direction, out)
        monkeypatch.setattr(flow, "threshold_bisect", fake)

    return u1, u2, probes, install


SIGN_CHANGING = np.array([1.0, -1.0])


def test_accepted_is_the_first_converged_sign_changer():
    # the snapshot whenever it is accepted, whatever the datum's residual
    field = flow.ScalarField(object(), SIGN_CHANGING)
    ray = _ray(field, 1, field, 1e-9, datum=field)
    assert ray.accepted() is ray.snapshot
    ray.datum = flow.Candidate(field, 1e-10, "datum")
    assert ray.accepted() is ray.snapshot
    one_signed = flow.ScalarField(field.grid, np.array([1.0, 0.0]))
    ray.snapshot = flow.Candidate(one_signed, 1e-12, "snapshot")
    assert ray.accepted() is ray.datum
    ray.snapshot = flow.Candidate(
        field, 2.0 * spectrum.STEADY_RESIDUAL_TOL, "snapshot")
    assert ray.accepted() is ray.datum
    ray.datum = flow.Candidate(one_signed, 1e-12, "datum")
    assert ray.accepted() is None


class TestPolishOrder:
    """threshold_bisect polishes the snapshot first and the threshold
    datum only when the snapshot is not accepted; newton_polish is
    counted."""

    @staticmethod
    def _bisect(monkeypatch, values, residuals, polish=True):
        """A one-probe ray whose steady probe's snapshot is v0 itself at raw
        residual 1e-3; the i-th polish keeps its field at residuals[i]."""
        calls = []

        def fake_evolve(v0, p, config, certify_decay=False):
            return flow.Trajectory(
                np.array([0.0]), np.array([0.0]), np.array([v0.sup]),
                np.array([]), Classification.STEADY, v0, 1e-3,
                best_snapshot=v0, best_residual=1e-3)

        def fake_polish(u, p):
            calls.append(u)
            return u, residuals[len(calls) - 1]

        monkeypatch.setattr(flow, "evolve", fake_evolve)
        monkeypatch.setattr(spectrum, "newton_polish", fake_polish)
        direction = flow.ScalarField(object(), np.array(values))
        return flow.threshold_bisect(direction, 5.0, polish=polish), calls

    def test_an_accepted_snapshot_leaves_the_datum_unpolished(
            self, monkeypatch):
        res, calls = self._bisect(monkeypatch, SIGN_CHANGING, [1e-12])
        assert len(calls) == 1
        assert res.snapshot.field is calls[0]
        assert res.snapshot.residual == 1e-12
        assert res.datum is None
        assert res.accepted() is res.snapshot
        assert res.polished and res.to_dict()["polished"] is True

    def test_an_unconverged_snapshot_gets_a_datum_polish(self, monkeypatch):
        # the snapshot's polish does not lower its residual: it is kept
        # unconverged, and the converged datum is the accepted candidate
        res, calls = self._bisect(monkeypatch, SIGN_CHANGING, [1.0, 1e-12])
        assert len(calls) == 2 and calls[1] is res.v0
        assert res.snapshot.residual == 1e-3
        assert res.datum.field is res.v0 and res.datum.residual == 1e-12
        assert res.accepted() is res.datum

    def test_a_one_signed_snapshot_gets_a_datum_polish(self, monkeypatch):
        res, calls = self._bisect(monkeypatch, [1.0, 0.5], [1e-12, 1e-12])
        assert len(calls) == 2 and calls[1] is res.v0
        assert res.snapshot.residual == res.datum.residual == 1e-12
        assert res.accepted() is None

    def test_no_polish_calls_no_newton(self, monkeypatch):
        res, calls = self._bisect(monkeypatch, SIGN_CHANGING, [],
                                  polish=False)
        assert calls == [] and res.datum is None
        assert res.snapshot.residual == 1e-3
        assert res.to_dict()["polished"] is False


def _final_bracket(results):
    signed = sorted((th, r.blowup_sign) for th, r in results
                    if isinstance(r, flow.ThresholdResult)
                    and r.blowup_sign != 0)
    return next((t1, t2) for (t1, s1), (t2, s2) in zip(signed, signed[1:])
                if s1 != s2)


def _assert_at_width_tol(scan):
    lo, hi = _final_bracket(scan.all_results)
    assert lo < THETA_STAR < hi and hi - lo <= flow.WIDTH_TOL


class TestAngleBisection:
    def test_transition_stops_at_width_tol(self, fake_rays):
        u1, u2, probes, install = fake_rays
        install()
        scan = flow.ray_scan(u1, u2, 8.0)
        _assert_at_width_tol(scan)
        w0 = FAN[1] - FAN[0]
        assert math.ceil(math.log2(w0 / flow.WIDTH_TOL)) == N_HALVINGS
        assert len(scan.all_results) == len(probes) == len(FAN) + N_HALVINGS
        # v0's ray is the last signed ray
        theta, res = scan.all_results[-1]
        assert scan.chosen == (res, theta)
        assert res.blowup_sign == _angle_sign(theta)

    def test_scan_refines_to_the_same_width(self, fake_rays):
        # no ray has a candidate, so every ray is polished
        u1, u2, probes, install = fake_rays
        install()
        scan = flow.ray_scan(u1, u2, 8.0)
        assert not scan.success
        assert len(scan.all_results) == len(probes) == len(FAN) + N_HALVINGS
        assert all(polish for _, polish in probes)
        _assert_at_width_tol(scan)

    def test_pass_continues_past_a_candidate_ray(self, fake_rays):
        u1, u2, probes, install = fake_rays

        def rule(theta):
            if abs(theta - THETA_STAR) > 0.01:
                return _angle_sign(theta)
            field = flow.ScalarField(u1.grid, SIGN_CHANGING)
            return _ray(field, _angle_sign(theta), field, 1e-9)

        install(rule)
        scan = flow.ray_scan(u1, u2, 8.0)
        assert len(scan.all_results) == len(probes) == len(FAN) + N_HALVINGS
        _assert_at_width_tol(scan)
        # the fourth halving is the first ray within 0.01 of THETA_STAR:
        # it and every ray before it are polished, the later rays are not
        first = len(FAN) + 3
        assert [polish for _, polish in probes] == (
            [True] * (first + 1) + [False] * (N_HALVINGS - 4))
        assert scan.success
        cand, theta = scan.candidate
        assert theta == scan.all_results[first][0]
        assert cand.source == "snapshot"
        theta, res = scan.all_results[-1]
        assert scan.chosen == (res, theta)

    def test_fan_candidate_leaves_the_later_rays_unpolished(self,
                                                           fake_rays):
        # the later fan rays and every bisection ray are unpolished
        u1, u2, probes, install = fake_rays

        def rule(theta):
            if _fan_index(theta) != 3:
                return _angle_sign(theta)
            datum = flow.ScalarField(u1.grid, SIGN_CHANGING)
            return _ray(datum, _angle_sign(theta), datum=datum)

        install(rule)
        scan = flow.ray_scan(u1, u2, 8.0)
        assert [polish for _, polish in probes] == (
            [True] * 4 + [False] * (len(FAN) - 4 + N_HALVINGS))
        cand, theta = scan.candidate
        assert (theta, cand.source, cand.residual) == (FAN[3], "datum", 1e-9)
        assert cand.field.values is SIGN_CHANGING
        _assert_at_width_tol(scan)

    def test_two_candidate_rays_give_the_first(self, fake_rays):
        # fan rays 1 and 5 have accepted candidates, the later one of less
        # residual: the scan takes ray 1 and polishes no ray after it
        u1, u2, probes, install = fake_rays
        field = flow.ScalarField(u1.grid, SIGN_CHANGING)
        residuals = {1: 1e-8, 5: 1e-10}   # by fan index

        def rule(theta):
            if _fan_index(theta) not in residuals:
                return _angle_sign(theta)
            return _ray(field, _angle_sign(theta), field,
                        residuals[_fan_index(theta)])

        install(rule)
        scan = flow.ray_scan(u1, u2, 8.0)
        assert len(probes) == len(FAN) + N_HALVINGS
        assert [polish for _, polish in probes] == (
            [True] * 2 + [False] * (len(FAN) - 2 + N_HALVINGS))
        cand, theta = scan.candidate
        assert (theta, cand.residual) == (FAN[1], 1e-8)
        # v0's ray is still the angle bisection's last signed ray
        theta, res = scan.all_results[-1]
        assert scan.chosen == (res, theta)
        _assert_at_width_tol(scan)

    def test_blowup_sign_steers_past_a_disagreeing_candidate(self,
                                                             fake_rays):
        # bisection rays below THETA_STAR blow up negative, but their
        # converged omega-limit is positive: the blow-up sign steers
        u1, u2, probes, install = fake_rays

        def rule(theta):
            if _fan_index(theta) is not None or theta > THETA_STAR:
                return _angle_sign(theta)
            positive = flow.ScalarField(u1.grid, np.array([1.0, 0.0]))
            return _ray(positive, -1, positive, 1e-9)

        install(rule)
        scan = flow.ray_scan(u1, u2, 8.0)
        assert len(probes) == len(FAN) + N_HALVINGS
        assert not scan.success
        _assert_at_width_tol(scan)

    @pytest.mark.parametrize("ending", ["sign 0", "no bracket"])
    def test_unsigned_ray_ends_the_loop(self, fake_rays, ending):
        u1, u2, probes, install = fake_rays

        def rule(theta):
            if abs(theta - THETA_STAR) > 0.01:
                return _angle_sign(theta)
            if ending == "sign 0":
                return 0
            raise flow.BracketError("no decay/blow-up bracket")

        install(rule)
        scan = flow.ray_scan(u1, u2, 8.0)
        # halvings 1-3 land 0.099, 0.042 and 0.013 rad from THETA_STAR,
        # the fourth within 0.01
        assert len(scan.all_results) == len(probes) == len(FAN) + 4
        theta, res = scan.all_results[-2]
        assert scan.chosen == (res, theta)
        assert res.blowup_sign == _angle_sign(theta)
        last = scan.all_results[-1][1]
        if ending == "sign 0":
            assert last.blowup_sign == 0
        else:
            assert isinstance(last, str) and "bracket" in last

    def test_unconverged_candidate_does_not_end_the_scan(self, fake_rays):
        # the only sign-changing candidate, on the third fan ray, is
        # unconverged (residual 26.6): the scan still bisects the angle
        u1, u2, probes, install = fake_rays
        field = flow.ScalarField(u1.grid, SIGN_CHANGING)

        def rule(theta):
            if _fan_index(theta) != 2:
                return _angle_sign(theta)
            return _ray(field, _angle_sign(theta), field, 26.6)

        install(rule)
        scan = flow.ray_scan(u1, u2, 8.0)
        unconverged = dict(scan.all_results)[FAN[2]]
        assert unconverged.snapshot.field is field
        assert unconverged.accepted() is None
        assert not scan.success
        assert len(scan.all_results) == len(probes) == len(FAN) + N_HALVINGS
        _assert_at_width_tol(scan)

    def test_no_flip_returns_none(self, fake_rays):
        u1, u2, probes, install = fake_rays
        install(lambda theta: 1)
        scan = flow.ray_scan(u1, u2, 8.0)
        assert [theta for theta, _ in scan.all_results] == list(FAN)
        assert scan.chosen is None and not scan.success

    def test_no_flip_chooses_the_first_candidate_ray(self, fake_rays):
        u1, u2, probes, install = fake_rays
        field = flow.ScalarField(u1.grid, SIGN_CHANGING)
        residuals = {1: 1e-8, 4: 1e-10}   # by fan index

        def rule(theta):
            if _fan_index(theta) not in residuals:
                return 1
            return _ray(field, 1, field, residuals[_fan_index(theta)])

        install(rule)
        scan = flow.ray_scan(u1, u2, 8.0)
        assert [theta for theta, _ in scan.all_results] == list(FAN)
        assert [polish for _, polish in probes] == (
            [True] * 2 + [False] * (len(FAN) - 2))
        res, theta = scan.chosen
        cand, cand_theta = scan.candidate
        assert theta == cand_theta == FAN[1]
        assert res is dict(scan.all_results)[FAN[1]]
        assert cand.residual == 1e-8


def _certificate_grid(name):
    """(grid the flow runs on, full grid) for the certificate tests."""
    if name == "disk":
        g = geometry.PolarGrid(24, 16)
        return g, g
    if name == "disk-c4":
        g = geometry.PolarGrid(24, 16)
        return g.quotient(geometry.cyclic(4)), g
    if name == "squircle-d4":
        g = geometry.CartesianMaskedGrid(geometry.squircle_mask(), 24)
        return g.quotient(geometry.dihedral(4)), g
    g = geometry.PolarGrid(24, 16, r_in=0.3)
    return g, g


CERTIFICATE_GRIDS = ["disk", "disk-c4", "squircle-d4", "annulus"]


def _m_of(grid, values):
    """M max psi, with M = max |v| / psi."""
    psi = grid.perron.psi
    return float(np.max(np.abs(values) / psi)) * float(np.max(psi))


class TestDecayCertificate:
    @pytest.mark.parametrize("name", CERTIFICATE_GRIDS)
    def test_perron_pair_bounds_lambda_1(self, name):
        grid, _ = _certificate_grid(name)
        pair = grid.perron
        assert grid.perron is pair  # cached
        assert np.all(pair.psi > 0) and np.max(pair.psi) == 1.0
        k_psi = grid.stiffness @ pair.psi
        assert np.all(k_psi >= pair.mu * grid.weights * pair.psi)
        lam1, _ = spectrum.lowest_eigenpair(grid.stiffness, grid.weights)
        # mu is the Collatz-Wielandt lower bound times (1 - PERRON_SAFETY);
        # the bound itself is within 1e-6 relative of lambda_1
        assert pair.mu < lam1
        assert pair.mu >= (1.0 - geometry.PERRON_SAFETY) * (1.0 - 1e-6) * lam1

    @pytest.mark.parametrize("name", CERTIFICATE_GRIDS)
    def test_certified_state_keeps_decaying(self, name):
        grid, full = _certificate_grid(name)
        p = 3.0
        r_in = getattr(full, "r_in", 0.0)
        th = np.arctan2(full.xy[:, 1], full.xy[:, 0])
        vals = (ring_bump(full, r_in + 0.05, 0.95).values
                * (1.0 + 0.3 * np.cos(4 * th)))
        v0 = flow.ScalarField(full, 0.5 * vals).on(grid)
        cfg = FlowConfig(t_max=50.0)
        tr = flow.evolve(v0, p, cfg, certify_decay=True)
        assert tr.classification == Classification.DECAY
        # the certificate fired before the sup test would have
        decay_at = cfg.decay_factor * tr.sup_norms[0]
        assert tr.sup_norms[-1] > decay_at
        assert len(tr.dts) < len(flow.evolve(v0, p, cfg).dts)
        v = tr.final.values
        m = _m_of(grid, v)
        assert m ** (p - 1.0) < grid.perron.mu
        for _ in range(10_000):
            v = flow.step(flow.ScalarField(grid, v), p, cfg.dt_max).values
            m_next = _m_of(grid, v)
            assert m_next < m
            m = m_next
            if np.max(np.abs(v)) < decay_at:
                break
        assert np.max(np.abs(v)) < decay_at

    @pytest.mark.parametrize("name", ["disk", "disk-c4"])
    def test_never_fires_on_a_steady_state(self, name):
        grid, full = _certificate_grid(name)
        u, res = spectrum.newton_polish(
            flow.field_from_radial(full, radial.solve_ball(5.0)), 5.0)
        assert res < 1e-10
        u = u.on(grid)
        m = _m_of(grid, u.values)
        assert m ** 4.0 >= grid.perron.mu
        tr = flow.evolve(u, 5.0, FlowConfig(t_max=5.0), certify_decay=True)
        assert tr.classification == Classification.STEADY

    def test_no_m_matrix_keeps_the_sup_test(self):
        grid = geometry.PolarGrid(24, 16)
        k = grid.stiffness.tolil()
        k[0, 1] = k[1, 0] = 0.1   # an angular neighbour pair; still SPD
        grid.stiffness = k.tocsr()
        assert grid.perron is None
        direction = flow.field_from_radial(grid, radial.solve_ball(3.0))
        cfg = FlowConfig(t_max=20.0)
        res = flow.threshold_bisect(direction, 3.0, cfg, polish=False,
                                    width_tol=0.05)
        assert any(c == Classification.DECAY for _, c in res.probes)
        for lam, cls in res.probes:
            plain = flow.evolve(direction.scaled(lam), 3.0, cfg)
            certified = flow.evolve(direction.scaled(lam), 3.0, cfg,
                                    certify_decay=True)
            assert plain.classification == cls
            assert len(certified.dts) == len(plain.dts)
            assert np.array_equal(certified.final.values, plain.final.values)




class TestOnePowerPerStep:
    """evolve computes |v|^{p-1} once per accepted step and hands it to
    ``step``; the iterates are those of plain ``step`` calls, bit for bit,
    and the energies those of ``energy.field_energy`` up to roundoff."""

    CASES = {
        "decay": (5.0, 1.0, None),
        "blowup": (5.0, 2.4, None),
        "near-threshold-c4": (5.0, 2.33, geometry.cyclic(4)),
        # 25^201 passes the float range: the energy is -inf, which
        # certifies the blow-up at t = 0
        "overflow-p200": (200.0, 25.0, None),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", CASES)
    def test_iterates_energies_and_step_calls(self, grid, ball_field,
                                              monkeypatch, case):
        p, sup0, G = self.CASES[case]
        g = grid if G is None else grid.quotient(G)
        v0 = ball_field.scaled(sup0 / ball_field.sup).on(g)
        calls, plain_step = [], flow.step

        def counted(v, p, dt, **kwargs):
            calls.append(kwargs["power"] is not None)
            return plain_step(v, p, dt, **kwargs)

        monkeypatch.setattr(flow, "step", counted)
        traj = flow.evolve(v0, p, FlowConfig(t_max=50.0))
        assert len(calls) == len(traj.dts) and all(calls)
        assert (len(calls) == 0) == (p == 200.0)

        v = v0.values
        energies = [energy.field_energy(flow.ScalarField(g, v), p).energy]
        for dt in traj.dts:
            v = plain_step(flow.ScalarField(g, v), p, dt).values
            energies.append(
                energy.field_energy(flow.ScalarField(g, v), p).energy)
        assert np.array_equal(v, traj.final.values)
        assert np.allclose(traj.energies, energies, rtol=1e-13, atol=0.0)
