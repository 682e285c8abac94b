import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.interpolate import PchipInterpolator

from lef import energy, radial
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
        rep = radial.radial_energy(radial.solve_ball(5.0))
        assert rep.nehari_residual < 1e-8

    def test_similarity_rescaling_identities(self):
        # u_lam(r) = lam^{2/(p-1)} u(lam r): in 2D both norms scale by
        # lam^{4/(p-1)}, so the Nehari residual is preserved
        p, lam = 5.0, 2.0
        prof = radial.solve_ball(p)
        r1 = radial.radial_energy(prof)
        r2 = radial.radial_energy(prof.scaled(lam))
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [1000.0, 1300.0, 1400.0])
    def test_energy_is_simpsons_up_to_the_float_range(self, p):
        # |u|^(p+1) of the ball solution (sup near e^(1/2)) nears the float
        # maximum at p = 1400; the Simpson sums keep it on the Nehari
        # manifold all the way
        rep = radial.radial_energy(radial.solve_ball(p))
        assert rep.nehari_residual <= 1e-7

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_energy_past_the_float_range_raises(self):
        # at p = 1500 the ball's |u|^(p+1) and u_r^2 pass the float range
        with pytest.raises(RadialSolveError, match="float range"):
            radial.radial_energy(radial.solve_ball(1500.0))

    def test_scaled_ball_consistency(self):
        p, alpha = 8.0, 0.25
        ball = radial.solve_ball(p)
        prof = radial.build_ball_solution_scaled(p, alpha, ball)
        rho = math.exp(-alpha * p)
        assert prof(np.array([rho]))[0] == pytest.approx(0.0, abs=1e-8)
        assert prof(np.array([2.0 * rho]))[0] == 0.0
        rep_direct = radial.radial_energy(prof)
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
        rep = radial.radial_energy(radial.solve_annulus(5.0, 0.3, 1.0))
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

    @pytest.mark.parametrize("p", [8.0, 200.0])
    def test_optimal_alpha_warm_starts(self, shots, p):
        radial.optimal_alpha(p)
        assert len(shots) <= 25

    def test_slope_bracket_widens_to_astronomical_slopes(self, shots):
        # near p = 1 the annulus slopes are astronomical: about 1e30 at
        # p = 1.05 and 4e74 at p = 1.02
        radial.optimal_alpha(1.05)
        assert len(shots) <= 40
        assert radial.optimal_alpha(1.02).annulus.slope > 1e30


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


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture(scope="module")
def profiles():
    """Ball, annulus and piecewise profiles at a moderate and a large p."""
    return [prof for p, alpha in ((8.0, 0.28), (200.0, 0.2))
            for prof in (radial.solve_ball(p),
                         radial.solve_annulus(p, math.exp(-alpha * p), 1.0),
                         radial.omega_test_function(p, alpha, 1.0))]


class TestScipyOracles:
    """The tableau, Brent, Simpson and PCHIP against scipy, bit for bit."""

    def test_tableau_is_scipys(self):
        D = scipy.integrate.DOP853
        A = [[0.0] * D.n_stages] + [radial._dense(row, D.n_stages)
                                    for _, row in radial._STAGES]
        tableau = {
            "A": (A, D.A),
            "C": ([0.0] + [c for c, _ in radial._STAGES], D.C),
            "B": (radial._dense(radial._B, D.n_stages), D.B),
            "E3": (radial._dense(radial._E3, D.n_stages + 1), D.E3),
            "E5": (radial._dense(radial._E5, D.n_stages + 1), D.E5),
            "D": ([radial._dense(row, 16) for row in radial._D], D.D),
            "A_EXTRA": ([radial._dense(row, 16)
                         for _, row in radial._EXTRA_STAGES], D.A_EXTRA),
            "C_EXTRA": ([c for c, _ in radial._EXTRA_STAGES], D.C_EXTRA),
        }
        for name, (mine, ref) in tableau.items():
            assert np.shape(mine) == ref.shape, name
            assert bits(mine) == bits(ref), name
        assert bits(radial._D_MATRIX) == bits(D.D)
        assert radial._D_MATRIX.flags.c_contiguous
        assert radial._FSAL == D.n_stages
        assert radial._ERROR_EXPONENT == -1.0 / (D.error_estimator_order + 1)

    def test_brent_event_and_alpha_roots_are_scipys(self, monkeypatch):
        # every root the shots and the alpha search take, by both
        calls = []
        mine = radial.brentq

        def both(f, a, b, xtol, rtol=energy.BRENT_RTOL):
            xs, ys = [], []
            root = mine(lambda x: xs.append(x) or f(x), a, b, xtol, rtol)
            ref = scipy.optimize.brentq(lambda x: ys.append(x) or f(x), a, b,
                                        xtol=xtol, rtol=rtol)
            assert root.hex() == float(ref).hex() and xs == ys
            calls.append(len(xs))
            return root

        monkeypatch.setattr(radial, "brentq", both)
        radial.solve_ball(8.0)
        radial._shoot_annulus(5.0, math.log(0.3), 0.0, 4.29, radial.RTOL)
        events = len(calls)
        radial.optimal_alpha(8.0)
        assert events >= 2 and len(calls) > events + 1

    @pytest.mark.parametrize("n", ["even", "odd"])
    def test_simpson_is_scipys(self, profiles, n):
        for prof in profiles:
            for a, b in prof.segments:
                if (b - a) % 2 != (n == "even"):
                    b -= 1
                r, u, du = prof.r[a:b], prof.u[a:b], prof.du[a:b]
                for y in (du * du * r, np.abs(u) ** (prof.p + 1.0) * r):
                    assert bits(radial.simpson(y, r)) == bits(
                        scipy.integrate.simpson(y, x=r))

    def test_pchip_is_scipys(self, profiles):
        for prof in profiles:
            keep = np.concatenate([[True], np.diff(prof.r) > 0.0])
            ref = PchipInterpolator(prof.r[keep], prof.u[keep],
                                    extrapolate=False)
            mid = 0.5 * (prof.r[1:] + prof.r[:-1])
            outside = np.array([-1.0, np.nextafter(prof.r_in, -1.0),
                                1.0 + 1e-12, 2.0, np.inf, np.nan])
            # the breakpoints (with the repeated break radius of a
            # piecewise profile), the midpoints, points outside
            for r in (prof.r, mid, outside):
                want = np.nan_to_num(ref(r), nan=0.0)
                assert bits(prof(r)) == bits(want)
            assert not np.any(prof(outside))

    @pytest.mark.parametrize("seed", range(4))
    def test_pchip_end_slopes_are_scipys(self, seed):
        # random sign changes reach both branches of the end-slope rule
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.1, 1.0, 8))
        y = rng.normal(size=8)
        r = np.linspace(x[0] - 0.5, x[-1] + 0.5, 1001)
        ref = PchipInterpolator(x, y, extrapolate=False)
        assert bits(radial.Pchip(x, y)(r)) == bits(
            np.nan_to_num(ref(r), nan=0.0))


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
        rep = radial.radial_energy(prof)
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


def budget(p, alpha, ball, slope=None):
    """T(alpha) = p (E_p(annulus) + E_p(scaled ball)) by quadrature, from
    the ball solution ``ball``."""
    from lef import energy
    choice = radial._profiles(p, alpha, ball, radial.radial_energy(ball),
                              slope)
    return energy.upper_bound_report(choice).total, choice


def minimized_alpha(p):
    """The minimizer of the quadrature budget by scipy's bounded search,
    to ALPHA_XATOL: the alpha of a value-only search."""
    from scipy.optimize import minimize_scalar
    ball = radial.solve_ball(p)
    choices = {}

    def total(alpha):
        value, choices[alpha] = budget(
            p, alpha, ball, radial._predict_slope(choices, alpha))
        return value

    res = minimize_scalar(total, bounds=radial.ALPHA_BOUNDS,
                          method="bounded",
                          options={"xatol": radial.ALPHA_XATOL})
    assert res.success
    return res.x


class TestOptimalAlpha:
    ALPHA_STAR = {8.0: 0.28008, 200.0: 0.20347}  # optimal_alpha, rounded

    @pytest.mark.parametrize("p", [8.0, 200.0])
    @pytest.mark.parametrize("offset", [-0.05, 0.05])
    def test_derivative_matches_central_difference(self, p, offset):
        # Hadamard's formula from the annulus slope against a central
        # difference of the quadrature budget
        alpha, h = self.ALPHA_STAR[p] + offset, 1e-4
        ball = radial.solve_ball(p)
        _, choice = budget(p, alpha, ball)
        slope = choice.annulus.slope
        (t_lo, _), (t_hi, _) = (budget(p, a, ball, slope)
                                for a in (alpha - h, alpha + h))
        central = (t_hi - t_lo) / (2.0 * h)
        assert choice.derivative == pytest.approx(central, rel=1e-5)
        assert (choice.derivative > 0.0) == (offset > 0.0)

    @pytest.mark.parametrize("p", [1.5, 8.0, 200.0])
    def test_is_the_budget_minimizer(self, p):
        assert radial.optimal_alpha(p).alpha == pytest.approx(
            minimized_alpha(p), abs=1e-5)

    def test_records_its_solves_and_stationarity(self, monkeypatch):
        solves = []
        solve_annulus = radial.solve_annulus
        monkeypatch.setattr(radial, "solve_annulus",
                            lambda *a: solves.append(a) or solve_annulus(*a))
        p = 8.0
        choice = radial.optimal_alpha(p)
        assert choice.solves == len(solves) >= 2
        # the zero is found to ALPHA_XATOL in alpha, over which T' changes
        # by T'' ALPHA_XATOL; T'' is about 5.5e3 here (T' goes from -322
        # to 230 over alpha* +- 0.05)
        assert abs(choice.derivative) < 1e4 * radial.ALPHA_XATOL
        assert choice.derivative == radial.budget_derivative(
            p, choice.alpha, choice.annulus.slope,
            radial.radial_energy(choice.ball))

    def test_no_sign_change_in_bounds_raises(self, monkeypatch):
        monkeypatch.setattr(radial, "ALPHA_BOUNDS", (0.05, 0.1))
        with pytest.raises(RadialSolveError, match="keeps its sign"):
            radial.optimal_alpha(8.0)

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
        again = radial._profiles(p, choice.alpha, choice.ball,
                                 radial.radial_energy(choice.ball), ann.slope)
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
