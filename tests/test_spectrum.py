import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lef import energy, flow, geometry, radial, spectrum
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


class TestEigenSolveGuards:
    def test_lowest_eigenpair_checks_its_residual(self, monkeypatch):
        # an eigsh that returns a wrong pair is caught by the residual check
        g = geometry.PolarGrid(24, 16)
        z = flow.ScalarField(g, np.zeros(g.n_nodes))
        A = spectrum.assemble_linearized(z, 5.0)
        eigsh = spectrum._eigsh

        def shifted(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            return vals + 1.0, vecs

        monkeypatch.setattr(spectrum, "_eigsh", shifted)
        with pytest.raises(spectrum.EigenSolveError, match="residual"):
            spectrum.lowest_eigenpair(A, g.weights)

    def test_lowest_eigenpair_uses_the_shifted_factor(self, monkeypatch):
        g = geometry.PolarGrid(24, 16)
        z = flow.ScalarField(g, np.zeros(g.n_nodes))
        opinv = []
        eigsh = spla.eigsh

        def recording(*args, **kwargs):
            opinv.append(kwargs["OPinv"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectrum.spla, "eigsh", recording)
        spectrum.lowest_eigenpair(spectrum.assemble_linearized(z, 5.0),
                                  g.weights)
        assert len(opinv) == 1
        assert isinstance(opinv[0], spla.LinearOperator)

    @pytest.mark.parametrize("n", [1, 2])
    def test_space_of_fewer_than_three_unknowns_raises(self, n):
        A = sp.diags(np.arange(1.0, n + 1.0)).tocsr()
        with pytest.raises(spectrum.EigenSolveError, match="too small"):
            spectrum.spectrum_at_shift(A, np.ones(n), 0.0, 1)
        with pytest.raises(spectrum.EigenSolveError, match="too small"):
            spectrum.lowest_eigenpair(A, np.ones(n))


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
    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170])
    def test_field_past_the_float_range_has_residual_inf(self, scale):
        # the squared norm of u passes the float range, or underflows to 0
        # (a decayed field is not steady), also at p near 1; only the zero
        # field has residual 0
        g = geometry.PolarGrid(16, 8)
        u = flow.ScalarField(g, scale * (1.0 - np.hypot(*g.xy.T) ** 2))
        for p in (1.01, 8.0):
            assert spectrum.elliptic_residual(u, p) == math.inf
            assert spectrum.elliptic_residual(u.scaled(0.0), p) == 0.0

    def test_direct_residual_is_the_plain_formula(self, polished_ball_p5):
        u = polished_ball_p5.scaled(1.5)
        g = u.grid
        plain = (-(g.stiffness @ u.values) / g.weights
                 + np.abs(u.values) ** 4.0 * u.values)
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
    @pytest.mark.parametrize("grid", ["polar", "orbit-d4"])
    def test_field_past_the_float_range_is_returned_with_residual_inf(
            self, grid, scale):
        # |u|^7 u passes the float range at 1e40, the norm of u at 1e300:
        # no Newton step is taken and the residual is inf, never nan, on a
        # polar grid and on a cartesian grid's D4 orbit grid alike
        g = {"polar": lambda: geometry.PolarGrid(16, 8),
             "orbit-d4": lambda: geometry.CartesianMaskedGrid(
                 geometry.squircle_mask(), 16).quotient(
                     geometry.dihedral(4))}[grid]()
        full = getattr(g, "parent", g)
        u = flow.field_from_radial(full, radial.solve_ball(8.0)).on(
            g).scaled(scale)
        out, res = spectrum.newton_polish(u, 8.0)
        assert res == math.inf
        assert np.array_equal(out.values, u.values)

    def test_elliptic_residual_of_solution(self, polished_ball_p5):
        assert spectrum.elliptic_residual(polished_ball_p5, 5.0) < 1e-10

    @pytest.mark.parametrize("scale", [1.0, 1.02])
    def test_residual_is_the_elliptic_residual(self, scale):
        # one formula: the polished field's residual is its elliptic one
        g = geometry.PolarGrid(24, 16)
        u = flow.field_from_radial(g, radial.solve_ball(5.0)).scaled(scale)
        polished, res = spectrum.newton_polish(u, 5.0)
        assert res == spectrum.elliptic_residual(polished, 5.0)

    def test_zero_field_has_residual_inf(self):
        g = geometry.PolarGrid(16, 8)
        z = flow.ScalarField(g, np.zeros(g.n_nodes))
        assert spectrum.elliptic_residual(z, 5.0) == 0.0
        assert spectrum.newton_polish(z, 5.0)[1] == math.inf


def _orbit_grid_state(p=3.0):
    """A polished radial state on polar 16x8, moved to its C4 orbit grid."""
    g = geometry.PolarGrid(16, 8)
    u, res = spectrum.newton_polish(
        flow.field_from_radial(g, radial.solve_ball(p)), p)
    assert res < 1e-10
    return u.on(g.quotient(geometry.cyclic(4)))


class TestMorseIndex:
    def test_orbit_grid_field_refuses_a_group(self):
        # an orbit grid's nodes are orbits: it realizes no group
        u = _orbit_grid_state()
        assert spectrum.morse_index(u, 3.0).morse_index == 1
        with pytest.raises(geometry.GridSymmetryError, match="orbit"):
            spectrum.morse_index(u, 3.0, geometry.cyclic(4))

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


def _cut_half_domain_mu(u, p):
    """(mu, odd-extension residual) from the half-domain submatrix: the
    nodes left of the axis by signed distance, the mirror couplings folded
    into the diagonal, scipy's own shift-invert factor below the spectrum.
    The oracle of ``half_domain_mu``."""
    grid, axis = u.grid, spectrum.HALF_DOMAIN_AXIS
    perm = grid.group_permutations(geometry.dihedral(1, axis))[1]
    s = grid.xy @ np.array([math.cos(axis + math.pi / 2.0),
                            math.sin(axis + math.pi / 2.0)])
    tol = 1e-9 * max(1.0, float(np.max(np.abs(s))))
    idx = np.flatnonzero(s < -tol)
    A = spectrum.assemble_linearized(u, p)
    cross = np.asarray(A[idx, perm[idx]]).ravel()
    cross[perm[idx] == idx] = 0.0
    A_half = A[idx][:, idx] - sp.diags(cross)
    w = grid.weights[idx]
    sigma = spectrum._spectrum_floor(A_half, w)
    v0 = np.random.default_rng(0).standard_normal(idx.size)
    vals, vecs = spla.eigsh(A_half, k=1, M=sp.diags(w), sigma=sigma, v0=v0)
    mu, tilde = float(vals[0]), np.zeros(grid.n_nodes)
    tilde[idx] = vecs[:, 0]
    tilde = tilde - tilde[perm]
    tilde[np.abs(s) <= tol] = 0.0
    r = A @ tilde - mu * (grid.weights * tilde)
    return mu, float(np.linalg.norm(r / grid.weights)
                     / (np.linalg.norm(tilde) * max(1.0, abs(mu))))


HALF_DOMAIN_GRIDS = {
    # the axis through node rays, between them, through a column, and
    # between columns
    "polar-96x32": lambda: geometry.PolarGrid(96, 32),
    "polar-24x18": lambda: geometry.PolarGrid(24, 18),
    "polar-40x20": lambda: geometry.PolarGrid(40, 20),
    "cartesian-40": lambda: geometry.CartesianMaskedGrid(
        geometry.DomainSpec.disk(1.0), 40),
    "cartesian-41": lambda: geometry.CartesianMaskedGrid(
        geometry.DomainSpec.disk(1.0), 41),
}


class TestHalfDomainAgainstTheCutSubmatrix:
    @pytest.mark.parametrize("field", ["zero", "ball"])
    @pytest.mark.parametrize("name", HALF_DOMAIN_GRIDS)
    def test_odd_subspace_mu_is_the_half_domain_mu(self, name, field):
        g = HALF_DOMAIN_GRIDS[name]()
        u = flow.ScalarField(g, np.zeros(g.n_nodes))
        if field == "ball":
            u, res = spectrum.newton_polish(
                flow.field_from_radial(g, radial.solve_ball(5.0)), 5.0)
            assert res < 1e-10
        mu, info = spectrum.half_domain_mu(u, 5.0)
        oracle_mu, oracle_residual = _cut_half_domain_mu(u, 5.0)
        assert oracle_residual < 1e-6
        assert mu == pytest.approx(oracle_mu, rel=1e-10)
        assert info["odd_extension_residual"] < 1e-6

    @pytest.mark.parametrize("n_theta", [5, 7])
    def test_grid_without_the_axis_reflection_is_axis_asymmetric(
            self, n_theta):
        g = geometry.PolarGrid(12, n_theta)
        u, _ = spectrum.newton_polish(
            flow.field_from_radial(g, radial.solve_ball(5.0)), 5.0)
        with pytest.raises(spectrum.AxisAsymmetryError, match="reflection"):
            spectrum.half_domain_mu(u, 5.0)

    def test_orbit_grid_is_axis_asymmetric(self):
        with pytest.raises(spectrum.AxisAsymmetryError, match="reflection"):
            spectrum.half_domain_mu(_orbit_grid_state(), 3.0)


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
        return np.inf if nrm == 0 else grid.weighted_norm(
            np.abs(x) ** (p - 1.0) * x - K @ x / w) / nrm

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


class TestJacobianInStiffnessPattern:
    @pytest.mark.parametrize("name", JACOBIAN_GRIDS)
    def test_factor_and_solve_equal_a_fresh_factorization(self, name):
        grid, u = _jacobian_case(name)
        rng = np.random.default_rng(7)
        d = grid.weights * 5.0 * np.abs(
            u.values * (1.0 + 0.1 * rng.standard_normal(grid.n_nodes))) ** 4
        J = (grid.stiffness - sp.diags(d)).tocsc()
        written = grid.stiffness.tocsc(copy=True)
        written.setdiag(grid.stiffness.diagonal() - d)
        # K's pattern with a new diagonal is J, entry for entry
        assert np.array_equal(written.indptr, J.indptr)
        assert np.array_equal(written.indices, J.indices)
        assert np.array_equal(written.data, J.data)
        # COLAMD reads only the pattern: K's column order is J's
        assert np.array_equal(spla.splu(grid.stiffness.tocsc()).perm_c,
                              spla.splu(J).perm_c)
        F = rng.standard_normal(grid.n_nodes)
        assert np.array_equal(spla.splu(written).solve(F),
                              spla.splu(J).solve(F))

    @pytest.mark.parametrize("name", JACOBIAN_GRIDS)
    def test_polish_equals_the_fresh_factorization_loop(self, name):
        grid, u = _jacobian_case(name)
        polished, res = spectrum.newton_polish(u, 5.0)
        values, oracle_res = _fresh_jacobian_polish(u, 5.0)
        assert res == oracle_res
        assert np.array_equal(polished.values, values)

    def test_zero_pivot_returns_the_best_iterate(self):
        # the 2 x 2 cells around the origin, a ring of 4 nodes with K =
        # 6 I - A (A the ring's adjacency); at v = 12, p = 2 the Jacobian
        # is -A exactly, singular, and SuperLU meets an exact zero pivot
        g = geometry.CartesianMaskedGrid(geometry.DomainSpec.disk(0.5), 4,
                                         extent=1.0)
        v = np.full(4, 12.0)
        J = g.stiffness - sp.diags(g.weights * 2.0 * np.abs(v))
        assert g.n_nodes == 4 and not np.any(J.diagonal())
        with pytest.raises(RuntimeError, match="singular"):
            spla.splu(J.tocsc())
        u = flow.ScalarField(g, v)
        out, res = spectrum.newton_polish(u, 2.0)
        assert np.array_equal(out.values, v)
        assert res == spectrum.elliptic_residual(u, 2.0)


# ---------------------------------------------------------------------------
# the block route: ring-constant steady states on polar grids
# ---------------------------------------------------------------------------

P_NODAL = 8.0


@pytest.fixture(scope="module")
def nodal_guess():
    """The pipeline's radial pair at p = 8, u1 - u2: the ball solution
    scaled into r < e^(-alpha p) and the annulus solution outside."""
    choice = radial.optimal_alpha(P_NODAL)
    inner = radial.build_ball_solution_scaled(P_NODAL, choice.alpha,
                                              choice.ball)

    def guess(g):
        return flow.ScalarField(
            g, flow.field_from_radial(g, inner).values
            + flow.field_from_radial(g, choice.annulus, sign=-1.0).values)
    return guess


def _ring_steady_state(initial: flow.ScalarField, p: float):
    """Newton from ``initial`` on the ring grid, lifted: a steady state
    that is ring-constant bit for bit."""
    g = initial.grid
    u, res = spectrum.newton_polish(initial.on(g.quotient(g.symmetry_group)),
                                    p)
    assert res < 1e-10
    u = u.lifted()
    assert g.symmetry_defect(u.values, g.symmetry_group) == 0.0
    return u


# ROADMAP item 3's polar rows, and two annulus states, one of each sign
# pattern (the positive one is unstable in every angular mode, up to the
# alternating mode j = n_theta / 2)
RING_STATES = ("48x32", "96x32", "96x64", "192x32", "annulus-positive",
               "annulus-nodal")


def _annulus_state(sign_pattern: str):
    """A ring-constant steady state at p = 5 on the annulus 0.3 < r < 1,
    positive or with one interior nodal circle."""
    g = geometry.PolarGrid(48, 16, r_in=0.3)
    r = np.hypot(g.xy[:, 0], g.xy[:, 1])
    if sign_pattern == "positive":
        shapes = [np.sin(math.pi * (r - 0.3) / 0.7)]
    else:
        wave = np.sin(2.0 * math.pi * (r - 0.3) / 0.7)
        shapes = [np.maximum(wave, 0.0), np.minimum(wave, 0.0)]
    # each sign part on its own Nehari manifold
    guess = sum(energy.nehari_project(flow.ScalarField(g, f), 5.0)[0]
                .values for f in shapes)
    return _ring_steady_state(flow.ScalarField(g, guess), 5.0)


@pytest.fixture(scope="module", params=RING_STATES)
def ring_state(request, nodal_guess):
    if request.param.startswith("annulus"):
        return _annulus_state(request.param.split("-")[1]), 5.0
    n_r, n_theta = map(int, request.param.split("x"))
    return (_ring_steady_state(nodal_guess(geometry.PolarGrid(n_r, n_theta)),
                               P_NODAL), P_NODAL)


def _assert_same_record(block, general):
    assert block.morse_index == general.morse_index
    assert block.symmetric_morse_index == general.symmetric_morse_index
    assert block.lambda_1 == pytest.approx(general.lambda_1, rel=1e-10,
                                           abs=0.0)
    for mine, theirs in ((block.eigenvalues, general.eigenvalues),
                         (block.symmetric_eigenvalues,
                          general.symmetric_eigenvalues)):
        assert len(mine) == len(theirs)
        np.testing.assert_allclose(mine, theirs, rtol=1e-8, atol=0.0)


def _ring_fields():
    """(name, field) pairs on which the ring test and the symmetry defect
    must agree: ring-constant fields, fields off by one node or one bit,
    signed zeros and non-finite values, and fields on grids with no
    rings."""
    g = geometry.PolarGrid(12, 8)
    rings = np.repeat(np.linspace(1.0, 0.0, 12), 8)
    fields = {"ring-constant": rings, "zero": np.zeros(g.n_nodes)}
    one_node = rings.copy()
    one_node[8 * 5 + 3] += 1e-3
    fields["one node off"] = one_node
    one_bit = rings.copy()
    one_bit[8 * 2 + 7] = np.nextafter(one_bit[8 * 2 + 7], 2.0)
    fields["one bit off"] = one_bit
    signed_zero = np.zeros(g.n_nodes)
    signed_zero[::2] = -0.0
    fields["signed zeros"] = signed_zero
    for value in (np.nan, np.inf, -np.inf):
        whole = rings.copy()
        whole[8:16] = value
        fields[f"ring of {value}"] = whole
        single = rings.copy()
        single[20] = value
        fields[f"one {value}"] = single
    out = [(name, flow.ScalarField(g, v)) for name, v in fields.items()]
    cart = geometry.CartesianMaskedGrid(geometry.squircle_mask(), 16)
    out.append(("cartesian", flow.ScalarField(cart, np.ones(cart.n_nodes))))
    orbits = g.quotient(geometry.cyclic(4))
    out.append(("orbit grid", flow.ScalarField(orbits,
                                               np.ones(orbits.n_nodes))))
    return out


@pytest.mark.parametrize("name,u", _ring_fields(),
                         ids=[name for name, _ in _ring_fields()])
def test_ring_constant_is_a_zero_symmetry_defect(name, u):
    """``_ring_constant`` reads the rings, the orbits of
    ``grid.symmetry_group``: the verdict of a zero symmetry defect under
    that group, non-finite values included."""
    grid = u.grid
    with np.errstate(invalid="ignore"):
        expected = (isinstance(grid, geometry.PolarGrid)
                    and grid.symmetry_defect(u.values,
                                             grid.symmetry_group) == 0)
        assert spectrum._ring_constant(u) is expected
    assert expected is (name in ("ring-constant", "zero", "signed zeros"))


class TestBlockRoute:
    """A ring-constant steady state on a polar grid takes the block route;
    the general path (``spectrum_at_shift`` on the full and the orbit
    grid) is its oracle."""

    def test_block_route_equals_the_general_path(self, ring_state):
        u, p = ring_state
        G = geometry.cyclic(4)
        block = spectrum.morse_index(u, p, G)
        general = spectrum._morse_by_shift(u, p, G, 12)
        assert general.morse_by_mode is None
        _assert_same_record(block, general)
        mult = spectrum.mode_multiplicities(u.grid, None)
        assert block.morse_index == sum(
            mult[j] * count for j, count in block.morse_by_mode.items())
        assert block.to_dict()["morse_by_mode"] == block.morse_by_mode

    @pytest.mark.parametrize("G", [
        geometry.cyclic(8), geometry.cyclic(32), geometry.dihedral(4),
        geometry.dihedral(4, math.pi / 32), geometry.dihedral(16),
        geometry.dihedral(16, math.pi / 32)],
        ids=["C8", "C32", "D4", "D4-half-step", "D16", "D16-half-step"])
    def test_symmetric_record_under_each_group(self, nodal_guess, G):
        # the half-step axes (dtheta / 2 on 48x32) flip the alternating
        # mode j = 16 under D16
        u = _ring_steady_state(nodal_guess(geometry.PolarGrid(48, 32)),
                               P_NODAL)
        mult = spectrum.mode_multiplicities(u.grid, G)
        assert mult.sum() * u.grid.n_r == u.grid.quotient(G).n_nodes
        block = spectrum.morse_index(u, P_NODAL, G, k=6)
        assert block.morse_by_mode is not None
        _assert_same_record(block, spectrum._morse_by_shift(u, P_NODAL, G, 6))

    def test_the_seed_one_count_by_mode(self, nodal_guess):
        u = _ring_steady_state(nodal_guess(geometry.PolarGrid(96, 32)),
                               P_NODAL)
        rep = spectrum.morse_index(u, P_NODAL, geometry.cyclic(4))
        assert (rep.morse_index, rep.symmetric_morse_index) == (12, 4)
        assert rep.morse_by_mode == {0: 2, 1: 2, 2: 1, 3: 1, 4: 1}

    @pytest.mark.parametrize("roll", [0, 1], ids=["dipole", "rolled"])
    def test_a_dipole_takes_the_general_path(self, roll):
        g = geometry.PolarGrid(32, 16)
        r = np.hypot(g.xy[:, 0], g.xy[:, 1])
        th = np.arctan2(g.xy[:, 1], g.xy[:, 0])
        phi = scipy.special.j1(3.8317 * r) * np.cos(th + g.dtheta / 2.0)
        u, res = spectrum.newton_polish(
            flow.ScalarField(g, 7.0 * phi / np.max(np.abs(phi))), 2.0)
        assert res < 1e-10
        values = np.roll(u.values.reshape(g.n_r, g.n_theta), roll, axis=1)
        rep = spectrum.morse_index(flow.ScalarField(g, values.ravel()), 2.0)
        assert rep.morse_by_mode is None
        assert "morse_by_mode" not in rep.to_dict()

    def test_a_cartesian_field_takes_the_general_path(self):
        g = geometry.CartesianMaskedGrid(geometry.DomainSpec.disk(1.0), 24)
        u, res = spectrum.newton_polish(
            flow.field_from_radial(g, radial.solve_ball(5.0)), 5.0)
        assert res < 1e-10
        assert spectrum.morse_index(u, 5.0).morse_by_mode is None

    def test_a_zero_pivot_raises(self):
        with pytest.raises(spectrum.EigenSolveError, match="zero pivot"):
            spectrum.sturm_counts(np.array([[0.0, 1.0]]), np.array([1.0]),
                                  np.ones(2), 0.0)


# the two disks and three annuli on which T_0 is read from the band
BAND_RING_GRIDS = {
    "96x32": lambda: geometry.PolarGrid(96, 32),
    "192x32": lambda: geometry.PolarGrid(192, 32),
    "annulus-48x16": lambda: geometry.PolarGrid(48, 16, r_in=0.3),
    "annulus-24x18": lambda: geometry.PolarGrid(24, 18, r_in=0.1),
    "annulus-40x20": lambda: geometry.PolarGrid(40, 20, r_in=0.1),
}


@pytest.fixture(scope="module", params=BAND_RING_GRIDS)
def band_state(request, nodal_guess):
    """A ring-constant steady state at p = 8: from the pipeline's nodal
    pair on a disk, from the positive radial solution on an annulus."""
    g = BAND_RING_GRIDS[request.param]()
    guess = (nodal_guess(g) if g.r_in == 0.0 else flow.field_from_radial(
        g, radial.solve_annulus(P_NODAL, g.r_in, g.r_out)))
    return _ring_steady_state(guess, P_NODAL)


class TestRingBlocksFromTheBand:
    """``ring_blocks`` reads T_0 from the ring grid's band of K; L
    assembled on the ring grid is its oracle, bit for bit."""

    def test_t0_equals_the_assembled_operator(self, band_state):
        u = band_state
        rings = u.grid.quotient(u.grid.symmetry_group)
        diagonals, off, weights = spectrum.ring_blocks(u, P_NODAL)
        T0 = spectrum.assemble_linearized(u.on(rings), P_NODAL)
        assert np.array_equal(diagonals[0], T0.diagonal())
        assert np.array_equal(off, T0.diagonal(1))
        assert np.array_equal(weights, rings.weights)

    def test_the_band_keeps_the_order_of_k_own_diagonals(self, band_state):
        # the row sums add the off-diagonal above before the one below;
        # the off-diagonal is a contiguous row, so a dot product with it
        # rounds as one with K's own off-diagonal
        rings = band_state.grid.quotient(band_state.grid.symmetry_group)
        band, K = rings.stiffness_band, rings.stiffness
        diagonal, off_diagonal = K.diagonal(), K.diagonal(1)
        row_sums = diagonal.copy()
        row_sums[:-1] += off_diagonal
        row_sums[1:] += off_diagonal
        assert band.kd == 1 and band.ab.flags.c_contiguous
        assert np.array_equal(band.row_sums, row_sums)
        rng = np.random.default_rng(3)
        for _ in range(50):
            squares = rng.standard_normal(off_diagonal.size) ** 2
            assert band.ab[0, 1:] @ squares == off_diagonal @ squares


# ---------------------------------------------------------------------------
# the half-domain mu of a ring-constant field: the block T_1
# ---------------------------------------------------------------------------

HALF_DOMAIN_RING_GRIDS = ("48x32", "96x32", "96x64", "192x32", "annulus")


@pytest.fixture(scope="module", params=[
    (name, field) for name in HALF_DOMAIN_RING_GRIDS
    for field in ("zero", "positive", "nodal")], ids="-".join)
def ring_field(request, nodal_guess):
    """(u, p): the zero field, or a positive or two-nodal ring-constant
    steady state, on ROADMAP item 3's polar rows and on the annulus."""
    name, field = request.param
    if name == "annulus":
        g = geometry.PolarGrid(48, 16, r_in=0.3)
        if field != "zero":
            return _annulus_state(field), 5.0
    else:
        g = geometry.PolarGrid(*map(int, name.split("x")))
    if field == "zero":
        return flow.ScalarField(g, np.zeros(g.n_nodes)), 5.0
    initial = (nodal_guess(g) if field == "nodal" else
               flow.field_from_radial(g, radial.solve_ball(P_NODAL)))
    return _ring_steady_state(initial, P_NODAL), P_NODAL


@pytest.fixture
def routes(monkeypatch):
    """Counts of the calls to each half-domain route, to ``eigsh`` and to
    the sparse factor ``_shifted_factor``."""
    calls = dict.fromkeys(("_odd_mode_by_block", "_odd_mode_by_shift",
                           "_shifted_factor", "eigsh"), 0)

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("_odd_mode_by_block", "_odd_mode_by_shift",
                 "_shifted_factor"):
        spy(spectrum, name)
    spy(spla, "eigsh")
    return calls


def _reflection(grid):
    return grid.group_permutations(
        geometry.dihedral(1, spectrum.HALF_DOMAIN_AXIS))[1]


class TestHalfDomainByBlock:
    """A ring-constant field takes its half-domain mu from T_1; the general
    route (``_odd_mode_by_shift``) is its oracle."""

    def test_t1_mu_equals_the_general_route(self, ring_field, routes):
        u, p = ring_field
        mu, info = spectrum.half_domain_mu(u, p)
        assert routes == {"_odd_mode_by_block": 1, "_odd_mode_by_shift": 0,
                          "_shifted_factor": 0, "eigsh": 0}
        assert info["odd_extension_residual"] < (
            spectrum.ODD_EXTENSION_RESIDUAL_TOL)
        A, w = spectrum.assemble_linearized(u, p), u.grid.weights
        general, tilde = spectrum._odd_mode_by_shift(A, w, _reflection(u.grid))
        assert spectrum._eigen_residual(A, w, general, tilde) < (
            spectrum.ODD_EXTENSION_RESIDUAL_TOL)
        assert mu == pytest.approx(general, rel=1e-12, abs=0.0)

    def test_mu_is_the_lowest_of_every_mode_past_zero(self, ring_field):
        # Sturm counts just below and above mu: no block j >= 1 has an
        # eigenvalue below it, and T_1 has one just above
        u, p = ring_field
        perm = _reflection(u.grid)
        mu, tilde = spectrum._odd_mode_by_block(u, p, perm)
        assert np.array_equal(tilde[perm], -tilde) and np.any(tilde)
        diagonals, off, weights = spectrum.ring_blocks(u, p)
        gap = 1e-9 * max(1.0, abs(mu))
        below = spectrum.sturm_counts(diagonals[1:], off, weights, mu - gap)
        above = spectrum.sturm_counts(diagonals[1:2], off, weights, mu + gap)
        assert not below.any() and above.tolist() == [1]

    def test_an_axis_symmetric_dipole_takes_the_general_route(self, routes):
        # j_1(r) sin(theta) is symmetric about the x2-axis, not
        # ring-constant
        g = geometry.PolarGrid(32, 16)
        r = np.hypot(g.xy[:, 0], g.xy[:, 1])
        th = np.arctan2(g.xy[:, 1], g.xy[:, 0])
        phi = scipy.special.j1(3.8317 * r) * np.sin(th)
        u, res = spectrum.newton_polish(
            flow.ScalarField(g, 7.0 * phi / np.max(np.abs(phi))), 2.0)
        assert res < 1e-10
        mu, info = spectrum.half_domain_mu(u, 2.0)
        assert routes["_odd_mode_by_block"] == 0
        assert routes["_odd_mode_by_shift"] == 1 and routes["eigsh"] == 1
        assert info["odd_extension_residual"] < (
            spectrum.ODD_EXTENSION_RESIDUAL_TOL)

    @pytest.mark.parametrize("roll", [0, 1], ids=["dipole", "rolled"])
    def test_an_axis_asymmetric_dipole_takes_neither_route(self, routes,
                                                           roll):
        g = geometry.PolarGrid(32, 16)
        r = np.hypot(g.xy[:, 0], g.xy[:, 1])
        th = np.arctan2(g.xy[:, 1], g.xy[:, 0])
        phi = scipy.special.j1(3.8317 * r) * np.cos(th + g.dtheta / 2.0)
        u, res = spectrum.newton_polish(
            flow.ScalarField(g, 7.0 * phi / np.max(np.abs(phi))), 2.0)
        assert res < 1e-10
        values = np.roll(u.values.reshape(g.n_r, g.n_theta), roll, axis=1)
        with pytest.raises(spectrum.AxisAsymmetryError, match="symmetric"):
            spectrum.half_domain_mu(flow.ScalarField(g, values.ravel()), 2.0)
        assert routes["_odd_mode_by_block"] == routes[
            "_odd_mode_by_shift"] == 0

    @pytest.mark.parametrize("field", ["zero", "ball"])
    def test_a_cartesian_field_takes_the_general_route(self, routes, field):
        g = geometry.CartesianMaskedGrid(geometry.DomainSpec.disk(1.0), 24)
        u = flow.ScalarField(g, np.zeros(g.n_nodes))
        if field == "ball":
            u, res = spectrum.newton_polish(
                flow.field_from_radial(g, radial.solve_ball(5.0)), 5.0)
            assert res < 1e-10
        spectrum.half_domain_mu(u, 5.0)
        assert routes["_odd_mode_by_block"] == 0
        assert routes["_odd_mode_by_shift"] == 1 and routes["eigsh"] == 1
