import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lef import flow, geometry, radial, spectrum
from tests.conftest import angular_bump


@pytest.fixture(scope="module")
def polished_ball_p5():
    """Grid-converged positive steady state at p = 5 on the unit disk."""
    g = geometry.PolarGrid(64, 24)
    v = flow.field_from_radial(g, radial.solve_ball(5.0))
    u, res = spectrum.newton_polish(v, 5.0)
    assert res < 1e-10
    return u


class TestLinearEigenOracles:
    def test_disk_laplacian_spectrum(self):
        # zero state: L = -Delta has no eigenvalue below the shift, so the
        # eigenvalues nearest it are the lowest, squared Bessel zeros
        g = geometry.PolarGrid(96, 32)
        z = flow.ScalarField(g, np.zeros(g.n_nodes))
        rep = spectrum.morse_index(z, 5.0, k=4)
        # j_{0,1}^2, j_{1,1}^2 (double), j_{2,1}^2
        oracle = [5.7832, 14.6820, 14.6820, 26.3746]
        assert rep.morse_index == 0
        assert np.allclose(rep.lambda_1, oracle[0], rtol=1e-2)
        assert np.allclose(rep.eigenvalues, oracle, rtol=1e-2)

    def test_eigenvector_normalization(self):
        g = geometry.PolarGrid(48, 16)
        z = flow.ScalarField(g, np.zeros(g.n_nodes))
        A = spectrum.assemble_linearized(z, 3.0)
        _, phi_1 = spectrum.lowest_eigenpair(A, g.weights)
        _, _, vecs = spectrum.spectrum_at_shift(A, g.weights, 0.0, 2)
        for phi in (phi_1, vecs[:, 0], vecs[:, 1]):
            assert g.weighted_norm(phi) == pytest.approx(1.0, rel=1e-8)


def _bump_operator(case: str, reduced: bool, p: float = 5.0):
    """(A, grid) of L at a scaled cos(4 theta) bump: not a steady
    state, with several negative eigenvalues; optionally on the orbit
    grid."""
    if case == "disk-c4":
        grid, G = geometry.PolarGrid(24, 16), geometry.cyclic(4)
    else:
        grid = geometry.CartesianMaskedGrid(geometry.squircle_mask(1.0, 4.0),
                                            24)
        G = geometry.dihedral(4)
    u = angular_bump(grid, 4).scaled(3.0)
    if reduced:
        u = u.on(grid.quotient(G))
    return spectrum.assemble_linearized(u, p), u.grid


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "orbit"])
@pytest.mark.parametrize("case", ["disk-c4", "squircle-d4"])
class TestInertiaAgainstDenseEigh:
    def test_count_below_shift(self, case, reduced):
        A, grid = _bump_operator(case, reduced)
        dense = scipy.linalg.eigh(A.toarray(), np.diag(grid.weights),
                                  eigvals_only=True)
        n_neg = int(np.count_nonzero(dense < 0.0))
        assert n_neg >= 2
        # shifts in spectral gaps clear of roundoff, spread over the spectrum
        gaps = np.flatnonzero(np.diff(dense) > 1e-6 * np.max(np.abs(dense)))
        picks = gaps[[0, 1, len(gaps) // 4, len(gaps) // 2, -1]]
        shifts = [dense[0] - 1.0, 0.0, dense[-1] + 1.0]
        shifts += [0.5 * (dense[j] + dense[j + 1]) for j in picks]
        for sigma in shifts:
            assert spectrum._shifted_factor(A, grid.weights, sigma)[0] == \
                np.count_nonzero(dense < sigma), sigma

    def test_lowest_eigenpairs_match_dense(self, case, reduced):
        # lambda_1, then the k eigenvalues nearest the Morse shift sigma_0
        A, grid = _bump_operator(case, reduced)
        dense = scipy.linalg.eigh(A.toarray(), np.diag(grid.weights),
                                  eigvals_only=True)
        lam1, _ = spectrum.lowest_eigenpair(A, grid.weights)
        assert np.allclose(lam1, dense[0], rtol=1e-9,
                           atol=1e-9 * abs(dense[0]))
        sigma = -spectrum.NEGATIVE_EIG_REL_TOL * abs(lam1)
        index, vals, _ = spectrum.spectrum_at_shift(A, grid.weights, sigma, 6)
        nearest = np.sort(dense[np.argsort(np.abs(dense - sigma))[:6]])
        assert index == np.count_nonzero(dense < sigma)
        assert np.allclose(vals, nearest, rtol=1e-9,
                           atol=1e-9 * abs(dense[0]))


@pytest.mark.parametrize("case", ["disk-c4", "squircle-d4"])
def test_lowest_eigenvalue_of_the_orbit_grid_is_the_full_one(case):
    # L has nonpositive off-diagonals, so its ground state can be taken
    # G-invariant (spectrum.morse_index)
    (A, grid), (A_orbit, orbits) = (_bump_operator(case, reduced)
                                    for reduced in (False, True))
    lam_full, _ = spectrum.lowest_eigenpair(A, grid.weights)
    lam_orbit, _ = spectrum.lowest_eigenpair(A_orbit, orbits.weights)
    assert lam_orbit == pytest.approx(lam_full, rel=1e-10)


class TestResidualOverflowGuard:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_field_gives_inf_without_a_warning(self):
        # 25^400, the squared norm of |u|^{p-1} u, passes the float range
        g = geometry.PolarGrid(48, 24)
        u = flow.ScalarField(g, 25.0 * (1.0 - np.hypot(*g.xy.T) ** 2))
        assert spectrum.elliptic_residual(u, 200.0) == math.inf
        assert flow.evolve(u, 200.0).final_residual == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_is_continuous_up_to_the_float_range(self):
        # the residual of c (1 - r^2) at p = 200 scales as c^199 while its
        # squared norm, about c^400 (near e^682 at c = 5.5), is a float
        g = geometry.PolarGrid(48, 24)
        shape = 1.0 - np.hypot(*g.xy.T) ** 2
        res = [spectrum.elliptic_residual(flow.ScalarField(g, c * shape),
                                          200.0) for c in (4.45, 4.5, 5.5)]
        assert res[1] / res[0] == pytest.approx((4.5 / 4.45) ** 199,
                                                rel=1e-10)
        assert res[2] / res[0] == pytest.approx((5.5 / 4.45) ** 199,
                                                rel=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_field_past_the_float_range_has_residual_inf(self, scale):
        # the squared norm of u passes the float range, also at p near 1
        g = geometry.PolarGrid(16, 8)
        u = flow.ScalarField(g, scale * (1.0 - np.hypot(*g.xy.T) ** 2))
        for p in (1.01, 8.0):
            assert spectrum.elliptic_residual(u, p) == math.inf

    def test_direct_residual_is_the_plain_formula(self, polished_ball_p5):
        u = polished_ball_p5.scaled(1.5)
        g = u.grid
        plain = g.laplacian_apply(u.values) + np.abs(u.values) ** 4.0 * u.values
        assert spectrum.elliptic_residual(u, 5.0) == (
            g.weighted_norm(plain) / g.weighted_norm(u.values))


class TestInertiaGuards:
    def test_zero_pivot_raises(self):
        # sigma = 2 is an eigenvalue: A - sigma W is singular
        A = sp.diags([1.0, 2.0, 3.0]).tocsr()
        with pytest.raises(spectrum.EigenSolveError, match="zero pivot"):
            spectrum._shifted_factor(A, np.ones(3), 2.0)[0]

    def test_off_diagonal_pivot_raises(self):
        # a zero diagonal forces SuperLU to pivot across rows
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(spectrum.EigenSolveError, match="perm_r"):
            spectrum._shifted_factor(A, np.ones(2), 0.0)[0]


class TestNewtonPolish:
    def test_converges_from_perturbed_solution(self, polished_ball_p5):
        u = polished_ball_p5
        rng = np.random.default_rng(3)
        noisy = flow.ScalarField(u.grid,
                                 u.values * (1.0 + 0.02 * rng.random(
                                     u.grid.n_nodes)))
        polished, res = spectrum.newton_polish(noisy, 5.0)
        assert res < 1e-10
        assert np.max(np.abs(polished.values - u.values)) < 1e-6 * u.sup

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e40, 1e300])
    def test_field_past_the_float_range_is_returned_with_residual_inf(
            self, scale):
        # |u|^7 u passes the float range at 1e40, the norm of u at 1e300:
        # no Newton step is taken and the residual is inf, never nan
        g = geometry.PolarGrid(16, 8)
        u = flow.field_from_radial(g, radial.solve_ball(8.0)).scaled(scale)
        out, res = spectrum.newton_polish(u, 8.0)
        assert res == math.inf
        assert np.array_equal(out.values, u.values)

    def test_elliptic_residual_of_solution(self, polished_ball_p5):
        assert spectrum.elliptic_residual(polished_ball_p5, 5.0) < 1e-10


class TestMorseIndex:
    def test_positive_solution_has_index_one(self, polished_ball_p5):
        rep = spectrum.morse_index(polished_ball_p5, 5.0)
        assert rep.morse_index == 1
        assert rep.lambda_1 < 0

    def test_symmetric_index_of_radial_state(self, polished_ball_p5):
        rep = spectrum.morse_index(polished_ball_p5, 5.0,
                                   G=geometry.cyclic(4))
        assert rep.symmetric_morse_index == 1
        assert rep.symmetric_morse_index <= rep.morse_index

    def test_rejects_non_steady_input(self, polished_ball_p5):
        junk = polished_ball_p5.scaled(1.5)
        with pytest.raises(ValueError):
            spectrum.morse_index(junk, 5.0)

    def test_repeated_eigensolves_are_bitwise_equal(self, polished_ball_p5):
        # ARPACK starts from a fixed vector, so a report repeats every digit
        u, G = polished_ball_p5, geometry.cyclic(4)
        assert (spectrum.morse_index(u, 5.0, G, k=4)
                == spectrum.morse_index(u, 5.0, G, k=4))
        assert (spectrum.half_domain_mu(u, 5.0)
                == spectrum.half_domain_mu(u, 5.0))


class TestHalfDomainMu:
    def test_zero_state_oracle(self):
        # odd-in-x eigenfunctions of the disk: half-disk mu = j_{1,1}^2
        g = geometry.PolarGrid(96, 32)
        z = flow.ScalarField(g, np.zeros(g.n_nodes))
        mu, info = spectrum.half_domain_mu(z, 5.0)
        assert mu == pytest.approx(14.6820, rel=5e-3)
        assert info["odd_extension_residual"] < 1e-6

    def test_positive_solution_mu_sign(self, polished_ball_p5):
        # for the positive ground-state the odd half-domain mode costs
        # less than p|u|^{p-1} only if the state is degenerate; at p = 5
        # on the disk mu is negative (index >= 2 for odd perturbations
        # does not hold, but the potential well makes mu < lambda_1)
        mu, info = spectrum.half_domain_mu(polished_ball_p5, 5.0)
        assert info["odd_extension_residual"] < 1e-6
        assert math.isfinite(mu)


class TestConvexity:
    def test_disk_and_squircle_convex(self):
        assert spectrum.convex_in_direction(
            geometry.DomainSpec.disk(1.0), 0.3) is True
        assert spectrum.convex_in_direction(
            geometry.squircle_mask(1.0, 4.0), 0.0) is True

    def test_annulus_not_convex(self):
        assert spectrum.convex_in_direction(
            geometry.DomainSpec.annulus(0.3, 1.0), 0.0) is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_power_squircle_within_the_float_range(self):
        # the diagonal chords reach |x| = 1.41, where |x|^1e4 passes the
        # float range: inf < 1 is outside, with no numpy warning
        assert spectrum.convex_in_direction(
            geometry.squircle_mask(1.0, 1e4), math.pi / 4) is True


def _fresh_jacobian_polish(u, p, tol=1e-10, max_iter=40):
    """Newton polish that assembles K - W diag(p |v|^{p-1}) and lets SuperLU
    order it afresh on every iteration: the oracle of ``newton_polish``."""
    grid = u.grid
    K, w = grid.stiffness, grid.weights
    v = u.values.copy()

    def F(x):
        return K @ x - w * np.abs(x) ** (p - 1.0) * x

    def res_of(x):
        nrm = grid.weighted_norm(x)
        return np.inf if nrm == 0 else grid.weighted_norm(F(x) / w) / nrm

    best_v, best_res = v.copy(), res_of(v)
    for _ in range(max_iter):
        J = (K - sp.diags(w * p * np.abs(v) ** (p - 1.0))).tocsc()
        try:
            dv = spla.splu(J).solve(F(v))
        except RuntimeError:
            break
        step = 1.0
        cur = res_of(v)
        while step > 1e-6:
            if res_of(v - step * dv) < cur:
                break
            step *= 0.5
        else:
            break
        v = v - step * dv
        r = res_of(v)
        if r < best_res:
            best_v, best_res = v.copy(), r
        if r < tol:
            break
    return best_v, best_res


def _jacobian_case(name):
    """(grid, field) on each grid kind Newton runs on; the field is the
    p = 5 ball sampled on the grid (restricted to orbits on an orbit
    grid)."""
    grids = {
        "polar": lambda: geometry.PolarGrid(24, 16),
        "annulus-polar": lambda: geometry.PolarGrid(24, 16, r_in=0.2),
        "cartesian": lambda: geometry.CartesianMaskedGrid(
            geometry.squircle_mask(), 24),
        "orbit-c4": lambda: geometry.PolarGrid(24, 16).quotient(
            geometry.cyclic(4)),
        "orbit-d4": lambda: geometry.CartesianMaskedGrid(
            geometry.squircle_mask(), 24).quotient(geometry.dihedral(4)),
    }
    grid = grids[name]()
    full = getattr(grid, "parent", grid)
    ball = flow.field_from_radial(full, radial.solve_ball(5.0)).values
    return grid, flow.ScalarField(full, ball).on(grid)


JACOBIAN_GRIDS = ["polar", "annulus-polar", "cartesian", "orbit-c4",
                  "orbit-d4"]


class TestJacobianInCachedPattern:
    @pytest.mark.parametrize("name", JACOBIAN_GRIDS)
    def test_factor_and_solve_equal_a_fresh_factorization(self, name):
        grid, u = _jacobian_case(name)
        rng = np.random.default_rng(7)
        d = grid.weights * 5.0 * np.abs(
            u.values * (1.0 + 0.1 * rng.standard_normal(grid.n_nodes))) ** 4
        J = (grid.stiffness - sp.diags(d)).tocsc()
        ordered = grid.ordered_stiffness
        # COLAMD reads only the pattern: K's column order is J's
        assert np.array_equal(spla.splu(grid.stiffness.tocsc()).perm_c,
                              spla.splu(J).perm_c)
        written = ordered.matrix.copy()
        written.data[ordered.diagonal] -= d[ordered.order]
        assert (written != J[:, ordered.order]).nnz == 0
        F = rng.standard_normal(grid.n_nodes)
        x = np.empty(grid.n_nodes)
        x[ordered.order] = spla.splu(written, permc_spec="NATURAL").solve(F)
        assert np.array_equal(x, spla.splu(J).solve(F))

    @pytest.mark.parametrize("name", JACOBIAN_GRIDS)
    def test_polish_equals_the_fresh_factorization_loop(self, name):
        grid, u = _jacobian_case(name)
        polished, res = spectrum.newton_polish(u, 5.0)
        values, oracle_res = _fresh_jacobian_polish(u, 5.0)
        assert res == oracle_res
        assert np.array_equal(polished.values, values)

    def test_pattern_is_cached_per_grid(self):
        grid, _ = _jacobian_case("orbit-c4")
        assert grid.ordered_stiffness is grid.ordered_stiffness
