import math

import numpy as np
import pytest
import scipy.integrate

from lef import radial
from lef.radial import RadialSolveError


class TestBall:
    def test_solution_properties(self):
        prof = radial.solve_ball(5.0)
        assert prof(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-10)
        assert prof.sup > 1.0
        # interior positivity and radial monotonicity near the center
        r = np.linspace(0.0, 0.99, 50)
        u = prof(r)
        assert np.all(u > 0.0)
        assert u[0] == pytest.approx(prof.sup, rel=1e-6)

    def test_solution_sits_on_nehari_manifold(self):
        rep = radial.radial_energy(radial.solve_ball(5.0), 5.0)
        assert rep.nehari_residual < 1e-8

    def test_similarity_rescaling_identities(self):
        # u_lam(r) = lam^{2/(p-1)} u(lam r): in 2D both norms scale by
        # lam^{4/(p-1)}, so the Nehari residual is preserved
        p, lam = 5.0, 2.0
        prof = radial.solve_ball(p)
        r1 = radial.radial_energy(prof, p)
        r2 = radial.radial_energy(prof.scaled(lam), p)
        factor = lam ** (4.0 / (p - 1.0))
        assert r2.grad_norm_sq == pytest.approx(factor * r1.grad_norm_sq,
                                                rel=1e-10)
        assert r2.lp1_norm_pow == pytest.approx(factor * r1.lp1_norm_pow,
                                                rel=1e-8)

    def test_large_p_solvable(self):
        rep = radial.ball_energy(200.0)
        assert math.isfinite(rep.scaled_energy)
        assert rep.scaled_energy > 0.0

    def test_invalid_p_raises(self):
        with pytest.raises((ValueError, RadialSolveError)):
            radial.solve_ball(1.0)

    def test_scaled_ball_consistency(self):
        p, alpha = 8.0, 0.25
        ball = radial.solve_ball(p)
        prof = radial.build_ball_solution_scaled(p, alpha, ball)
        rho = math.exp(-alpha * p)
        assert prof(np.array([rho]))[0] == pytest.approx(0.0, abs=1e-8)
        assert prof(np.array([2.0 * rho]))[0] == 0.0
        rep_direct = radial.radial_energy(prof, p)
        rep_closed = radial.ball_scaled_energy(p, alpha, ball)
        assert rep_direct.energy == pytest.approx(rep_closed.energy, rel=1e-6)


class TestAnnulus:
    def test_solution_properties(self):
        prof = radial.solve_annulus(5.0, 0.3, 1.0)
        assert prof(np.array([0.3]))[0] == pytest.approx(0.0, abs=1e-8)
        assert prof(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-8)
        r = np.linspace(0.35, 0.95, 40)
        assert np.all(prof(r) > 0.0)

    def test_on_nehari_manifold(self):
        rep = radial.radial_energy(radial.solve_annulus(5.0, 0.3, 1.0), 5.0)
        assert rep.nehari_residual < 1e-7

    def test_bad_geometry_raises(self):
        with pytest.raises((ValueError, RadialSolveError)):
            radial.solve_annulus(5.0, 1.2, 1.0)


@pytest.fixture
def shots(monkeypatch):
    """The solution of every _shoot_annulus call, in call order."""
    record = []
    shoot = radial._shoot_annulus

    def counted(p, t_a, t_b, slope, rtol, dense=False):
        sol = shoot(p, t_a, t_b, slope, rtol, dense)
        record.append(sol)
        return sol

    monkeypatch.setattr(radial, "_shoot_annulus", counted)
    return record


class TestAnnulusShooting:
    A_BAR = 0.19493053  # asymptotic optimal alpha, energy.minimize_f()

    @pytest.mark.parametrize("p, a", [(5.0, 0.3),
                                      (200.0, math.exp(-A_BAR * 200.0))])
    def test_few_shots_and_admissible_final_shot(self, shots, p, a):
        radial.solve_annulus(p, a, 1.0)
        assert len(shots) <= 20
        final = shots[-1]
        t_zero = final.t_events[0]  # log r; the outer edge is log 1 = 0
        assert t_zero.size == 0 or t_zero[0] >= -1e-13
        sup = np.max(np.abs(final.y[0]))
        assert abs(final.y[0, -1]) < radial.ENDPOINT_TOL * sup

    def test_unmet_endpoint_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(radial, "ENDPOINT_TOL", 0.0)
        with pytest.raises(RadialSolveError, match=r"p=5\.0.*u\(b\)/sup"):
            radial.solve_annulus(5.0, 0.3, 1.0)

    @pytest.mark.parametrize("p, a, s", [(5.0, 0.3, 4.29),
                                         (200.0, math.exp(-39.0), 0.0507)])
    def test_slope_derivative_matches_central_difference(self, p, a, s):
        h = 1e-4 * s
        lo, mid, hi = (radial._shoot_annulus(p, math.log(a), 0.0, x, 1e-11)
                       for x in (s - h, s, s + h))
        assert all(sol.status == 0 for sol in (lo, mid, hi))  # reach r = 1
        central = (hi.y[0, -1] - lo.y[0, -1]) / (2.0 * h)
        assert mid.y[2, -1] == pytest.approx(central, rel=1e-6)

    def test_warm_start_from_converged_slope(self, shots):
        prof = radial.solve_annulus(8.0, 0.1, 1.0)
        shots.clear()
        again = radial.solve_annulus(8.0, 0.1, 1.0, slope=prof.slope)
        assert len(shots) <= 2
        assert again.slope == prof.slope
        assert np.array_equal(again.u, prof.u)

    def test_optimal_alpha_warm_starts(self, shots):
        radial.optimal_alpha(200.0)
        assert len(shots) <= 80


def scipy_shot(p, t_span, y0, rtol, first_step=None, dense_output=False):
    """The shot radial.solve_ivp integrates, by scipy's solve_ivp."""
    rhs = radial._shot_rhs(p)

    def hit_zero(t, y):
        return y[0]
    hit_zero.direction = -1

    def trough(t, y):
        return y[1]
    trough.terminal = True
    trough.direction = 1

    tol = 1.0 / math.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return scipy.integrate.solve_ivp(
            lambda t, y: rhs(t, *y.tolist()), t_span, y0, method="DOP853",
            rtol=rtol * tol, atol=[radial.ATOL * tol] * 2 + [1e300] * 2,
            events=(hit_zero, trough), dense_output=dense_output,
            first_step=first_step)


class TestShotKernel:
    """radial.solve_ivp against scipy's solve_ivp(method="DOP853")."""

    def test_tableau_is_consistent(self):
        D = scipy.integrate.DOP853
        assert D.B.sum() == pytest.approx(1.0, abs=1e-14)
        for A, C in ((D.A, D.C), (D.A_EXTRA, D.C_EXTRA)):
            assert np.allclose(A.sum(axis=1), C, rtol=0.0, atol=1e-14)
        assert D.E3.sum() == pytest.approx(0.0, abs=1e-14)
        assert D.E5.sum() == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("p", [3.0, 8.0, 200.0])
    def test_ball_matches_scipy(self, monkeypatch, p):
        mine = radial.solve_ball(p)
        monkeypatch.setattr(radial, "solve_ivp", scipy_shot)
        ref = radial.solve_ball(p)
        assert np.max(np.abs(mine.u - ref.u)) <= 1e-13 * ref.sup

    @pytest.mark.parametrize("p, a, s", [(5.0, 0.3, 4.29),
                                         (200.0, math.exp(-39.0), 0.0507),
                                         (50.0, math.exp(-10.0), 0.3)])
    def test_annulus_shot_matches_scipy(self, monkeypatch, p, a, s):
        mine = radial._shoot_annulus(p, math.log(a), 0.0, s, radial.RTOL,
                                     dense=True)
        monkeypatch.setattr(radial, "solve_ivp", scipy_shot)
        ref = radial._shoot_annulus(p, math.log(a), 0.0, s, radial.RTOL,
                                    dense=True)
        assert mine.status == ref.status
        for t_mine, t_ref in zip(mine.t_events, ref.t_events):
            assert t_mine.shape == t_ref.shape
            assert np.allclose(t_mine, t_ref, rtol=0.0, atol=1e-9)
        t = np.linspace(math.log(a), ref.t[-1], radial.N_SAMPLES)
        u_mine, u_ref = mine.sol(t)[:2], ref.sol(t)[:2]
        sup = np.max(np.abs(u_ref[0]))
        assert np.max(np.abs(u_mine - u_ref)) <= 1e-9 * sup

    def test_steep_shot_stops_early_in_both(self, monkeypatch):
        args = (200.0, -39.0, 0.0, 50.0, radial.RTOL)
        assert radial._shoot_annulus(*args).status != 0
        monkeypatch.setattr(radial, "solve_ivp", scipy_shot)
        assert radial._shoot_annulus(*args).status != 0


class TestOmegaProfile:
    def test_closed_form_energy(self):
        p, alpha, b = 10.0, 1.0, 1.0
        prof = radial.omega_test_function(p, alpha, b)
        rep = radial.radial_energy(prof, p)
        exact = radial.omega_energy_closed_form(p, alpha, b)
        assert rep.grad_norm_sq == pytest.approx(exact, rel=1e-6)

    def test_peak_normalization_and_support(self):
        p, alpha, b = 10.0, 0.5, 1.0
        prof = radial.omega_test_function(p, alpha, b)
        assert prof.sup == pytest.approx(1.0, rel=1e-12)
        assert prof(np.array([math.exp(-alpha * p)]))[0] == 0.0

    def test_domain_ordering_validated(self):
        with pytest.raises(ValueError):
            radial.omega_test_function(10.0, 0.1, 0.1)


class TestOptimalAlpha:
    def test_beats_asymptotic_alpha_at_moderate_p(self):
        from lef import energy
        p = 8.0
        a_star = radial.optimal_alpha(p).alpha
        a_bar = energy.minimize_f().alpha_bar
        assert 0.05 < a_star < 0.9

        def total(alpha):
            rep = energy.upper_bound_report(radial.profiles_at(p, alpha))
            return rep.total

        assert total(a_star) < total(a_bar)

    def test_returns_the_profiles_at_its_alpha(self):
        p = 8.0
        choice = radial.optimal_alpha(p)
        ann = choice.annulus
        assert ann.r_in == math.exp(-choice.alpha * p) and ann.r_out == 1.0
        assert len(ann.r) == radial.N_SAMPLES
        again = radial.profiles_at(p, choice.alpha, choice.ball, ann.slope)
        assert again.ball is choice.ball
        assert np.array_equal(again.annulus.u, ann.u)

    def test_solves_the_ball_once(self, monkeypatch):
        calls = []
        solve_ball = radial.solve_ball
        monkeypatch.setattr(radial, "solve_ball",
                            lambda *a, **kw: calls.append(a) or
                            solve_ball(*a, **kw))
        radial.optimal_alpha(8.0)
        assert len(calls) == 1

    def test_approaches_asymptotic_minimizer(self):
        from lef import energy
        a_bar = energy.minimize_f().alpha_bar
        a_200 = radial.optimal_alpha(200.0).alpha
        assert abs(a_200 - a_bar) < 0.02
