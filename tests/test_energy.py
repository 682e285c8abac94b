import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
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


def logged(f):
    """f, and the list of the points it is called at."""
    xs = []
    return (lambda x: xs.append(x) or f(x)), xs


class TestBrent:
    """energy.brentq against scipy.optimize.brentq, bit for bit."""

    @pytest.mark.parametrize("f, a, b, xtol, rtol", [
        (energy.f_alpha_prime, 1e-3, 2.0, 1e-14, 8.9e-16),
        (lambda x: x * x - 2.0, 0.0, 2.0, 1e-12, energy.BRENT_RTOL),
        (lambda x: math.cos(x) - x, 0.0, 1.0, 1e-15, energy.BRENT_RTOL),
        (lambda x: x ** 3 - 1e-3, -1.0, 2.0, 1e-15, 8.9e-16),
        (lambda x: math.exp(x) - 1e-10, -40.0, 5.0, 1e-5, energy.BRENT_RTOL),
        (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, 1e-14, 1e-10),
        (lambda x: x - 1.0, 0.0, 1.0, 1e-12, energy.BRENT_RTOL),  # at b
        (lambda x: x, 0.0, 1.0, 1e-12, energy.BRENT_RTOL),  # at a
        # subnormal values: an interpolation divisor underflows to 0
        (lambda x: (x ** 3 - 0.3) * 1e-320, -1e3, 1e3, 1e-12,
         energy.BRENT_RTOL),
    ], ids=["f_alpha_prime", "sqrt2", "cos", "cube", "exp", "tanh",
            "endpoint-b", "endpoint-a", "underflow"])
    def test_same_root_and_calls_as_scipy(self, f, a, b, xtol, rtol):
        mine, xs = logged(f)
        ref, ys = logged(f)
        root = energy.brentq(mine, a, b, xtol, rtol)
        assert root.hex() == float(scipy.optimize.brentq(
            ref, a, b, xtol=xtol, rtol=rtol)).hex()
        assert xs == ys and root in xs

    @pytest.mark.parametrize("f, a, b, kw, error", [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),  # one sign
        (lambda x: x, -1.0, 1.0, {"xtol": 0.0}, ValueError),
        (lambda x: x, -1.0, 1.0, {"rtol": 1e-16}, ValueError),
        (lambda x: math.nan if x > 0.5 else x, -1.0, 2.0, {}, ValueError),
        (lambda x: x ** 3, -1.0, 2.0, {"maxiter": 3}, RuntimeError),
    ], ids=["same-sign", "xtol", "rtol", "nan", "maxiter"])
    def test_raises_where_scipy_does(self, f, a, b, kw, error, monkeypatch):
        kw = {"xtol": 1e-12, **kw}
        with pytest.raises(error):
            scipy.optimize.brentq(f, a, b, **kw)
        if "maxiter" in kw:  # the package's limit is a module constant
            monkeypatch.setattr(energy, "BRENT_MAXITER", kw.pop("maxiter"))
        with pytest.raises(error):
            energy.brentq(f, a, b, **kw)

    def test_minimize_f_root_is_scipys(self):
        assert energy.minimize_f().alpha_bar == scipy.optimize.brentq(
            energy.f_alpha_prime, 1e-3, 2.0, xtol=1e-14, rtol=8.9e-16)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatRange:
    """Norms are taken directly: within the float range they are the plain
    formulas bit for bit, past it inf, without a numpy warning."""

    def test_norms_are_the_plain_formulas_in_range(self, disk_grid_small):
        g = disk_grid_small
        v = 1.0 - np.hypot(g.xy[:, 0], g.xy[:, 1]) ** 2
        for c in (1.0, 1e150):  # the form of 1e150 v is near 1e300
            assert energy.dirichlet_form(g, c * v) == g.dirichlet_form(c * v)
        # 1.1^7000 is near e^667: no power passes the float range
        big = 1.1 * v
        assert energy.lp1_norm_pow(g, big, 7000.0) == float(
            g.weights @ np.abs(big) ** 7001.0)

    def test_norms_past_the_float_range_are_inf(self, disk_grid_small):
        g = disk_grid_small
        v = 1e300 * (1.0 - np.hypot(g.xy[:, 0], g.xy[:, 1]) ** 2)
        assert energy.dirichlet_form(g, v) == math.inf
        assert energy.lp1_norm_pow(g, v, 5.0) == math.inf
        rep = energy.field_energy(flow.ScalarField(g, v), 5.0)
        assert math.isnan(rep.energy)
        # K v of a rough field meets inf with -inf: the grid's form is nan
        rough = 1e306 * np.random.default_rng(0).uniform(-1.0, 1.0, v.size)
        assert energy.dirichlet_form(g, rough) == math.inf


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
