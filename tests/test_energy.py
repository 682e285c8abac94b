import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from lef import energy, flow, geometry, radial
from tests.conftest import ring_bump


class TestAlphaProfile:
    def test_stationarity_and_value(self):
        opt = energy.minimize_f()
        assert abs(energy.f_alpha_prime(opt.alpha_bar)) < 1e-8
        assert opt.f_value <= energy.f_alpha(0.2)
        assert energy.f_alpha(0.2) < 4.97

    def test_f_alpha_vectorized(self):
        a = np.array([0.1, 0.2, 0.3])
        vals = energy.f_alpha(a)
        assert vals.shape == (3,)
        assert np.all(vals > 0)


class TestEnergyReport:
    def test_from_norms_arithmetic(self):
        rep = energy.EnergyReport.from_norms(6.0, 3.0, 5.0)
        assert rep.energy == pytest.approx(3.0 - 0.5)
        assert rep.scaled_energy == pytest.approx(5.0 * 2.5)
        assert rep.nehari_residual == pytest.approx(0.5)

    def test_upper_bound_constant(self):
        assert energy.UPPER_BOUND_CONST == pytest.approx(
            4.97 * 4.0 * math.pi * math.e, rel=1e-12)


class TestLp1Norm:
    def test_matches_direct_quadrature(self, disk_grid_medium):
        g = disk_grid_medium
        r = np.hypot(g.xy[:, 0], g.xy[:, 1])
        v = 1.0 - r ** 2
        # integral of (1-r^2)^{p+1} over the disk, p = 3
        exact = 2.0 * math.pi / 10.0
        got = energy.lp1_norm_pow(g, v, 3.0)
        assert got == pytest.approx(exact, rel=1e-3)

    def test_log_domain_path_matches_plain_path(self, disk_grid_small):
        # amplitudes straddling the (p+1) log sup = 600 switch must agree:
        # lp1(c v) = c^{p+1} lp1(v) with the left side on the log path
        g = disk_grid_small
        p = 200.0
        r = np.hypot(g.xy[:, 0], g.xy[:, 1])
        v = 1.5 * (1.0 - r ** 2)            # plain path
        c = 15.0                            # (p+1) log(22.5) ~ 625: log path
        a = energy.lp1_norm_pow(g, v, p)
        b = energy.lp1_norm_pow(g, c * v, p)
        assert math.isfinite(b)
        assert math.log(b) - math.log(a) == pytest.approx(
            (p + 1.0) * math.log(c), rel=1e-12)


class TestNehariProjection:
    def test_projection_lands_on_manifold(self, ball_field_p5):
        u, t = energy.nehari_project(ball_field_p5.scaled(3.0), 5.0)
        assert t > 0
        assert energy.field_energy(u, 5.0).nehari_residual < 1e-12

    def test_projection_is_scale_invariant(self, ball_field_p5):
        u1, _ = energy.nehari_project(ball_field_p5, 5.0)
        u2, _ = energy.nehari_project(ball_field_p5.scaled(7.0), 5.0)
        assert np.allclose(u1.values, u2.values, rtol=1e-12)

    def test_zero_field_rejected(self, disk_grid_small):
        z = flow.ScalarField(disk_grid_small, np.zeros(disk_grid_small.n_nodes))
        with pytest.raises(ValueError):
            energy.nehari_project(z, 5.0)


class TestCombinedEnergy:
    def test_disjoint_pair_respects_bound(self, disk_grid_medium):
        g = disk_grid_medium
        p = 5.0
        u1, _ = energy.nehari_project(ring_bump(g, 0.0, 0.35), p)
        u2, _ = energy.nehari_project(ring_bump(g, 0.55, 0.95, sign=-1.0), p)
        e_sum = (energy.field_energy(u1, p).energy
                 + energy.field_energy(u2, p).energy)
        for t1 in (0.2, 1.0, 1.7):
            for t2 in (0.3, 1.0, 1.9):
                rep = energy.combined_energy(u1, u2, t1, t2, p)
                assert rep.energy <= e_sum + 1e-8

    def test_violated_bound_raises(self):
        # a Dirichlet form that couples the supports while the stiffness
        # behind the contact slack does not: E(u1 + u2) = 1 > E(u1) + E(u2)
        grid = SimpleNamespace(
            weights=np.ones(2), stiffness=sp.identity(2, format="csr"),
            dirichlet_form=lambda v: float(v @ v + v[0] * v[1]))
        u1 = flow.ScalarField(grid, np.array([1.0, 0.0]))
        u2 = flow.ScalarField(grid, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="combination bound violated"):
            energy.combined_energy(u1, u2, 1.0, 1.0, 3.0)

    def test_overlapping_supports_rejected(self, disk_grid_medium):
        g = disk_grid_medium
        u1 = ring_bump(g, 0.0, 0.5)
        u2 = ring_bump(g, 0.4, 0.9)
        with pytest.raises(ValueError):
            energy.combined_energy(u1, u2, 1.0, 1.0, 5.0)


class TestUpperBoundReport:
    def test_fields_consistent(self):
        alpha = energy.minimize_f().alpha_bar
        rep = energy.upper_bound_report(radial.profiles_at(50.0, alpha))
        assert rep.total == pytest.approx(
            rep.p_energy_annulus + rep.p_energy_ball, rel=1e-12)
        assert rep.bound == pytest.approx(energy.UPPER_BOUND_CONST)
        assert rep.total < rep.bound

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            energy.upper_bound_report(radial.profiles_at(1.0, 0.2))
