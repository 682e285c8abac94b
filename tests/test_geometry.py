import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from lef import cli, flow, geometry
from lef.geometry import (CartesianMaskedGrid, DomainSpec, GridSymmetryError,
                          PolarGrid, SymmetryGroup, check_admissible,
                          convex_in_direction, cyclic, dihedral,
                          squircle_mask)


class TestGroups:
    def test_sizes(self):
        assert cyclic(4).size == 4
        assert dihedral(4).size == 8
        assert cyclic(1).size == 1

    def test_orbit_cardinality_generic_point(self):
        pt = np.array([[0.3, 0.11]])
        assert _orbit_counts(cyclic(4), pt).tolist() == [4]
        assert _orbit_counts(dihedral(4), pt).tolist() == [8]

    def test_orbit_cardinality_special_points(self):
        assert _orbit_counts(cyclic(6), np.zeros((1, 2))).tolist() == [1]
        # a point on a reflection axis has half the dihedral orbit
        assert _orbit_counts(dihedral(4),
                             np.array([[0.5, 0.0]])).tolist() == [4]

    def test_apply_group_element_rotates(self):
        G = cyclic(4)
        images = [m @ np.array([1.0, 0.0]) for m in G.elements()]
        assert len(images) == G.size
        assert any(np.allclose(img, [0.0, 1.0]) for img in images)
        assert any(np.allclose(img, [-1.0, 0.0]) for img in images)


COINCIDENCE_TOL = 1e-12  # images this close count as one point


def _orbit_counts(G, pts, enough=math.inf):
    """|Gx| for each row x of ``pts``, counted greedily in group-element
    order: an image counts unless it lies within COINCIDENCE_TOL of an
    image counted before it.  Counting stops once every point has
    ``enough`` images."""
    counted, count = [], np.zeros(len(pts), dtype=int)
    for img in (pts @ m.T for m in G.elements()):
        if np.all(count >= enough):
            break
        new = np.ones(len(pts), dtype=bool)
        for prev, was_counted in counted:
            new &= ~was_counted | (np.linalg.norm(img - prev, axis=1)
                                   > COINCIDENCE_TOL)
        counted.append((img, new))
        count += new
    return count


def _sampled_admissible(G, domain, seed):
    """The sampled admissibility check, the reference of the exact rule
    ``check_admissible``: at each of 512 sampled points the domain mask is
    G-invariant, and at every sampled inside point away from the origin
    |Gx| >= 4."""
    if G.order_h < 4:
        return False
    R = domain.radius
    pts = np.random.default_rng(seed).uniform(-R, R, size=(512, 2))
    inside = domain.inside(pts)
    if any(np.any(domain.inside(pts @ m.T) != inside)
           for m in G.elements()):
        return False
    away = inside & (np.linalg.norm(pts, axis=1) >= COINCIDENCE_TOL)
    return bool(np.all(_orbit_counts(G, pts[away], enough=4) >= 4))


# the oracle grid: C_h and D_h for h = 1..12 at six axis angles, on a disk,
# an annulus and five squircles (power 2 is a disk), three sample seeds
ORACLE_GROUPS = [(kind, h) for kind in ("cyclic", "dihedral")
                 for h in range(1, 13)]
ORACLE_AXES = (0.0, math.pi / 8, 0.3, math.pi / 4, math.pi / 2, 1e-12)
ORACLE_DOMAINS = [DomainSpec.disk(1.0), DomainSpec.annulus(0.3, 1.0)] + [
    squircle_mask(R, q)
    for R, q in [(1.0, 4.0), (1.0, 2.0), (0.8, 6.0), (1.0, 0.5), (2.0, 3.0)]]
ORACLE_SEEDS = (0, 1, 2)


def test_oracle_grid_has_3024_cases():
    assert len(ORACLE_GROUPS) * len(ORACLE_AXES) * len(ORACLE_DOMAINS) \
        * len(ORACLE_SEEDS) == 3024


@pytest.mark.parametrize("kind,h", ORACLE_GROUPS,
                         ids=[f"{k}-{h}" for k, h in ORACLE_GROUPS])
def test_exact_admissibility_equals_the_sampled_check(kind, h):
    cases = [(SymmetryGroup(kind, h, axis), domain, seed)
             for axis in ORACLE_AXES for domain in ORACLE_DOMAINS
             for seed in ORACLE_SEEDS]
    wrong = [(G, domain, seed) for G, domain, seed in cases
             if check_admissible(G, domain)
             != _sampled_admissible(G, domain, seed)]
    assert wrong == []


# verdicts of the exact rule, each read off the group and the domain
VERDICTS = [
    ("C3 disk: orbits of 3", SymmetryGroup("cyclic", 3), DomainSpec.disk(1.0),
     False),
    ("D3 disk: orbits of 3 on an axis", SymmetryGroup("dihedral", 3),
     DomainSpec.disk(1.0), False),
    ("D1 annulus", SymmetryGroup("dihedral", 1),
     DomainSpec.annulus(0.3, 1.0), False),
    ("C5 disk", SymmetryGroup("cyclic", 5), DomainSpec.disk(1.0), True),
    ("D7 annulus", SymmetryGroup("dihedral", 7, 0.3),
     DomainSpec.annulus(0.3, 1.0), True),
    ("C9 power-2 squircle", SymmetryGroup("cyclic", 9),
     squircle_mask(1.5, 2.0), True),
    ("D6 power-2 squircle", SymmetryGroup("dihedral", 6, 0.3),
     squircle_mask(0.8, 2.0), True),
    ("C3 power-2 squircle", SymmetryGroup("cyclic", 3),
     squircle_mask(1.0, 2.0), False),
    ("C4 squircle at any axis", SymmetryGroup("cyclic", 4, 0.3),
     squircle_mask(1.0, 4.0), True),
    ("C4 squircle of power 0.5", SymmetryGroup("cyclic", 4),
     squircle_mask(1.0, 0.5), True),
    ("D4 squircle on the diagonals", SymmetryGroup("dihedral", 4, math.pi / 4),
     squircle_mask(2.0, 3.0), True),
    ("D4 squircle at -pi/2", SymmetryGroup("dihedral", 4, -math.pi / 2),
     squircle_mask(1.0, 6.0), True),
    ("D4 squircle within STEP_TOL of pi/4",
     SymmetryGroup("dihedral", 4, math.pi / 4 + 1e-12),
     squircle_mask(1.0, 4.0), True),
    ("D4 squircle at pi/8", SymmetryGroup("dihedral", 4, math.pi / 8),
     squircle_mask(1.0, 4.0), False),
    ("D4 squircle at 0.3", SymmetryGroup("dihedral", 4, 0.3),
     squircle_mask(1.0, 4.0), False),
    ("C8 squircle: rotation by pi/4", SymmetryGroup("cyclic", 8),
     squircle_mask(1.0, 4.0), False),
    ("D8 squircle", SymmetryGroup("dihedral", 8), squircle_mask(1.0, 4.0),
     False),
    ("C12 squircle", SymmetryGroup("cyclic", 12), squircle_mask(1.0, 6.0),
     False),
    ("C6 squircle: no quarter turn", SymmetryGroup("cyclic", 6),
     squircle_mask(1.0, 4.0), False),
    ("C3 squircle", SymmetryGroup("cyclic", 3), squircle_mask(1.0, 4.0),
     False),
]


def _verdict_id(name):
    return name.replace(": ", "--").replace(" ", "-").replace("/", "-over-")


@pytest.mark.parametrize("G,domain,expected", [case[1:] for case in VERDICTS],
                         ids=[_verdict_id(case[0]) for case in VERDICTS])
def test_exact_admissibility_verdict(G, domain, expected):
    assert check_admissible(G, domain) is expected


class TestAdmissibility:
    def test_c2_disk_rejected(self):
        assert check_admissible(cyclic(2), DomainSpec.disk(1.0)) is False

    def test_c4_disk_accepted(self):
        assert check_admissible(cyclic(4), DomainSpec.disk(1.0)) is True

    def test_d4_squircle_accepted(self):
        assert check_admissible(dihedral(4), squircle_mask(1.0, 4.0)) is True

    def test_annulus_accepted(self):
        assert check_admissible(cyclic(4), DomainSpec.annulus(0.3, 1.0)) is True


def _runs(domain, point, direction, reach, n=4001):
    """The number of runs of inside points among n points of the line
    point + t direction, |t| <= reach."""
    t = np.linspace(-reach, reach, n)
    inside = domain.inside(point + t[:, None] * direction).astype(int)
    return int(inside[0] + np.count_nonzero(np.diff(inside) == 1))


def _direction(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def _lines_meet_in_one_run(domain, angle, n_lines=101):
    """Whether each of n_lines lines along ``angle``, spread across the
    disk of radius sqrt(2) R that holds the domain, meets it in at most one
    run of its sampled points: the check of a convex verdict."""
    d = _direction(angle)
    normal = np.array([-d[1], d[0]])
    reach = math.sqrt(2.0) * domain.radius
    return all(_runs(domain, off * normal, d, reach) <= 1
               for off in np.linspace(-reach, reach, n_lines))


def _annulus_witness(domain, angle):
    """Three points in order on the line through the centre along
    ``angle``: inside, in the hole, inside."""
    mid = 0.5 * (domain.inner_radius + domain.radius)
    return np.outer([-mid, 0.0, mid], _direction(angle))


def _squircle_secant(domain, angle, gap=0.01):
    """(point, direction) of a line along ``angle`` that crosses a squircle
    of power q < 1 twice: the tangent of that slope to the boundary arc of
    the quadrant whose tangents have that slope's sign, at (x0, y0), moved
    ``gap * min(x0, y0)`` out along the arc's normal (the arc narrows
    toward its cusps).  The point is just outside, and the arc rises above
    the line on both sides of it."""
    q, R = domain.power, domain.radius
    d = _direction(angle)
    flip = np.array([1.0 if d[0] * d[1] < 0.0 else -1.0, 1.0])
    dx, dy = d * flip   # in the first quadrant the slope dy/dx is negative
    # on x^q + y^q = R^q the slope is -(x/y)^(q-1)
    k = (-dy / dx) ** (1.0 / (q - 1.0))
    y0 = R * (1.0 + k ** q) ** (-1.0 / q)
    x0 = k * y0
    normal = np.array([x0 ** (q - 1.0), y0 ** (q - 1.0)])
    point = np.array([x0, y0]) + (gap * min(x0, y0) * normal
                                  / np.linalg.norm(normal))
    return point * flip, d


ALL_ANGLES = (0.0, 0.3, math.pi / 4, 1.0, math.pi / 2, 2.0, 3 * math.pi / 4,
              math.pi, -0.3, 5.0)
AXIS_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, -math.pi / 2,
               2 * math.pi, 1e-12, math.pi / 2 - 1e-12)
CONVEX_CASES = (
    [(f"disk-{a:g}", DomainSpec.disk(1.0), a) for a in ALL_ANGLES]
    + [(f"squircle-q{q:g}-{a:g}", squircle_mask(R, q), a)
       for R, q in [(1.0, 1.0), (1.0, 1.5), (1.0, 4.0), (0.8, 6.0),
                    (2.0, 3.0)] for a in ALL_ANGLES]
    + [(f"squircle-q{q:g}-axis-{a:g}", squircle_mask(1.0, q), a)
       for q in (0.5, 0.8) for a in AXIS_ANGLES])
ANNULUS_CASES = [(f"annulus-{a:g}-{angle:g}", DomainSpec.annulus(a, 1.0), angle)
                 for a in (0.3, 0.01, 0.005) for angle in ALL_ANGLES]
# near q = 1 the arc is nearly straight and, away from the diagonals, its
# tangent points lie too near a cusp for a sampled line to resolve
SECANT_CASES = [(f"squircle-q{q:g}-R{R:g}-{a:g}", squircle_mask(R, q), a)
                for R, q in [(1.0, 0.8), (1.0, 0.5), (2.0, 0.8)]
                for a in (0.3, math.pi / 4, 1.0, 2.0, 3 * math.pi / 4, -0.3,
                          5.0)] + [
    (f"squircle-q0.95-{a:g}", squircle_mask(1.0, 0.95), a)
    for a in (math.pi / 4, 3 * math.pi / 4)]


class TestConvexity:
    """``convex_in_direction`` is exact: a convex verdict is checked by
    many lines that each meet the domain in one run, a non-convex one by
    one explicit line that meets it in two."""

    @pytest.mark.parametrize("domain,angle", [c[1:] for c in CONVEX_CASES],
                             ids=[c[0] for c in CONVEX_CASES])
    def test_convex_verdict_every_line_meets_one_run(self, domain, angle):
        assert convex_in_direction(domain, angle) is True
        assert _lines_meet_in_one_run(domain, angle)

    @pytest.mark.parametrize("domain,angle", [c[1:] for c in ANNULUS_CASES],
                             ids=[c[0] for c in ANNULUS_CASES])
    def test_annulus_line_through_the_centre_crosses_the_hole(self, domain,
                                                              angle):
        assert convex_in_direction(domain, angle) is False
        pts = _annulus_witness(domain, angle)
        assert domain.inside(pts).tolist() == [True, False, True]

    @pytest.mark.parametrize("domain,angle", [c[1:] for c in SECANT_CASES],
                             ids=[c[0] for c in SECANT_CASES])
    def test_squircle_below_power_1_secant_meets_two_runs(self, domain,
                                                          angle):
        assert convex_in_direction(domain, angle) is False
        point, d = _squircle_secant(domain, angle)
        assert not domain.inside(point)[0]
        t = np.linspace(0.0, 2.0 * domain.radius, 100_001)[1:]
        for side in (-1.0, 1.0):   # inside on both sides: two runs
            assert np.any(domain.inside(point + side * t[:, None] * d))

    def test_disk_and_squircle_convex(self):
        assert convex_in_direction(DomainSpec.disk(1.0), 0.3) is True
        assert convex_in_direction(squircle_mask(1.0, 4.0), 0.0) is True

    def test_annulus_not_convex(self):
        assert convex_in_direction(DomainSpec.annulus(0.3, 1.0), 0.0) is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_power_squircle_within_the_float_range(self):
        # the diagonal lines reach |x| = 1.41, where |x|^1e4 passes the
        # float range: inf < 1 is outside, with no numpy warning
        domain = squircle_mask(1.0, 1e4)
        assert convex_in_direction(domain, math.pi / 4) is True
        assert _lines_meet_in_one_run(domain, math.pi / 4)


class TestPolarGrid:
    def test_weights_sum_to_area(self):
        g = PolarGrid(64, 32)
        assert math.isclose(g.weights.sum(), math.pi, rel_tol=1e-10)
        ga = PolarGrid(64, 32, r_in=0.5)
        assert math.isclose(ga.weights.sum(), math.pi * 0.75, rel_tol=1e-10)

    def test_lowest_laplacian_eigenvalue_disk(self):
        # oracle: first Dirichlet eigenvalue of the unit disk is j_{0,1}^2
        from scipy.sparse.linalg import eigsh
        g = PolarGrid(96, 32)
        M = np.asarray(g.weights)
        import scipy.sparse as sp
        vals = eigsh(g.stiffness.tocsc(), k=1, M=sp.diags(M).tocsc(),
                     sigma=0.0, which="LM", return_eigenvectors=False)
        assert abs(vals[0] - 5.783185962947) < 0.01

    def test_dirichlet_form_matches_gradient_oracle(self):
        # u = 1 - r^2 on the disk: ||grad u||^2 = 2 pi
        g = PolarGrid(128, 16)
        r = np.hypot(g.xy[:, 0], g.xy[:, 1])
        u = 1.0 - r ** 2
        assert math.isclose(g.dirichlet_form(u), 2.0 * math.pi, rel_tol=1e-3)

    def test_rotation_permutation_exact(self):
        g = PolarGrid(16, 12)
        th = np.arctan2(g.xy[:, 1], g.xy[:, 0])
        v = np.cos(th) + 0.5 * np.sin(2 * th)
        perms = g.group_permutations(cyclic(12))
        found = False
        for perm in perms:
            rotated = v[perm]
            # one element must be rotation by exactly one sector
            target = np.cos(th - g.dtheta) + 0.5 * np.sin(2 * (th - g.dtheta))
            if np.allclose(rotated, target, atol=1e-12):
                found = True
        assert found

    def test_symmetrize_projects_and_is_idempotent(self):
        g = PolarGrid(16, 16)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(g.n_nodes)
        G = cyclic(4)
        s = g.symmetrize(v, G)
        assert g.symmetry_defect(s, G) < 1e-12
        assert np.allclose(g.symmetrize(s, G), s, atol=1e-14)

    def test_incompatible_rotation_raises(self):
        g = PolarGrid(16, 16)
        with pytest.raises(GridSymmetryError):
            g.group_permutations(cyclic(5))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PolarGrid(1, 16)
        with pytest.raises(ValueError):
            PolarGrid(16, 16, r_out=1.0, r_in=1.5)


class TestCartesianMaskedGrid:
    def test_square_eigenvalue_oracle(self):
        # square (-1,1)^2: first eigenvalue 2 * (pi/2)^2
        from scipy.sparse.linalg import eigsh
        import scipy.sparse as sp
        # at power 1e4 the squircle's mask on this grid is the whole square
        g = CartesianMaskedGrid(squircle_mask(1.0, 1e4), 64)
        assert g.n_nodes == 64 ** 2
        vals = eigsh(g.stiffness.tocsc(), k=1,
                     M=sp.diags(g.weights).tocsc(), sigma=0.0,
                     which="LM", return_eigenvectors=False)
        exact = 2.0 * (math.pi / 2.0) ** 2
        assert abs(vals[0] - exact) / exact < 5e-3

    def test_squircle_weights_and_group(self):
        g = CartesianMaskedGrid(squircle_mask(1.0, 4.0), 48)
        # |x|^4 + |y|^4 < 1 has area ~ 3.7081
        assert abs(g.weights.sum() - 3.7081) < 0.05
        rng = np.random.default_rng(1)
        v = rng.standard_normal(g.n_nodes)
        G = dihedral(4)
        s = g.symmetrize(v, G)
        assert g.symmetry_defect(s, G) < 1e-12

    def test_incompatible_group_raises(self):
        g = CartesianMaskedGrid(DomainSpec.disk(1.0), 24)
        with pytest.raises(GridSymmetryError):
            g.group_permutations(cyclic(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("radius", [0.7, 0.8, 1.0, 1.3, 2.0])
    def test_squircle_mask_is_the_unscaled_one(self, radius):
        # (|x|/R)^q + (|y|/R)^q < 1 against |x|^q + |y|^q < R^q, on the
        # cell centres of cartesian grids over the squircle's box and the
        # unit box: no cell flips where R^q is finite
        for q, n, extent in itertools.product((2.5, 3.0, 4.0, 6.0),
                                              (16, 64, 128), (radius, 1.0)):
            c = (np.arange(n) + 0.5) * (2.0 * extent / n) - extent
            x, y = (a.ravel() for a in np.meshgrid(c, c, indexing="ij"))
            unscaled = np.abs(x) ** q + np.abs(y) ** q < radius ** q
            got = squircle_mask(radius, q).inside(np.column_stack([x, y]))
            assert np.array_equal(got, unscaled), (q, n, extent)
        # past the float range of R^q the scaled mask still holds the
        # points inside: |x|, |y| < R
        big = squircle_mask(2.0, 2000.0)
        assert big.inside(np.array([[1.99, -1.99], [1.5, 0.0]])).all()
        assert not big.inside(np.array([[2.01, 0.0], [0.0, -2.0]])).any()


# -- stiffness oracle: the per-edge loop assembly the face-list assembly
# -- replaced, kept to pin K, the face set and the boundary nodes --------

def _loop_polar(g):
    n_r, n_t = g.n_r, g.n_theta
    dr, dth = g.dr, g.dtheta
    rows, cols, vals = [], [], []
    diag = np.zeros(g.n_nodes)
    ea, eb = [], []

    def idx(j, i):
        return j * n_t + i

    def add_edge(a, b, c):
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([-c, -c])
        diag[a] += c
        diag[b] += c
        ea.append(a)
        eb.append(b)

    i_all = np.arange(n_t)
    for jface in range(1, n_r):
        c = (g.r_in + jface * dr) * dth / dr
        for aa, bb in zip(idx(jface - 1, i_all), idx(jface, i_all)):
            add_edge(aa, bb, c)
    for jring in range(n_r):
        c = dr / (g.r_nodes[jring] * dth)
        for aa, bb in zip(idx(jring, i_all), idx(jring, (i_all + 1) % n_t)):
            add_edge(aa, bb, c)
    diag[idx(n_r - 1, i_all)] += g.r_out * dth / (dr / 2.0)
    bnd = np.zeros(g.n_nodes, dtype=bool)
    bnd[idx(n_r - 1, i_all)] = True
    if g.r_in > 0.0:
        diag[idx(0, i_all)] += g.r_in * dth / (dr / 2.0)
        bnd[idx(0, i_all)] = True
    rows.extend(range(g.n_nodes))
    cols.extend(range(g.n_nodes))
    vals.extend(diag)
    K = sp.csr_matrix((vals, (rows, cols)), shape=(g.n_nodes, g.n_nodes))
    return K, (ea, eb), bnd


def _loop_cartesian(g):
    n = g.n
    coords = (np.arange(n) + 0.5) * g.h - g.extent
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    inside = g.domain.inside(np.column_stack([X.ravel(), Y.ravel()]))
    interior = -np.ones(n * n, dtype=np.int64)
    interior[inside] = np.arange(int(inside.sum()))
    inside, interior = inside.reshape(n, n), interior.reshape(n, n)
    rows, cols, vals = [], [], []
    diag = np.zeros(g.n_nodes)
    ea, eb = [], []
    bnd = np.zeros(g.n_nodes, dtype=bool)
    for ix in range(n):
        for iy in range(n):
            if not inside[ix, iy]:
                continue
            a = interior[ix, iy]
            for jx, jy in ((ix + 1, iy), (ix, iy + 1)):
                if jx < n and jy < n and inside[jx, jy]:
                    b = interior[jx, jy]
                    rows.extend([a, b])
                    cols.extend([b, a])
                    vals.extend([-1.0, -1.0])
                    diag[a] += 1.0
                    diag[b] += 1.0
                    ea.append(a)
                    eb.append(b)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                jx, jy = ix + dx, iy + dy
                if (jx < 0 or jx >= n or jy < 0 or jy >= n
                        or not inside[jx, jy]):
                    diag[a] += 2.0
                    bnd[a] = True
    rows.extend(range(g.n_nodes))
    cols.extend(range(g.n_nodes))
    vals.extend(diag)
    K = sp.csr_matrix((vals, (rows, cols)), shape=(g.n_nodes, g.n_nodes))
    return K, (ea, eb), bnd


def bitwise_equal(A, B) -> bool:
    """Same csr structure and the same float64 bits in every entry."""
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and A.data.tobytes() == B.data.tobytes())


class TestFaceListAssembly:
    @pytest.mark.parametrize("make, oracle", [
        (lambda: PolarGrid(96, 32), _loop_polar),
        (lambda: PolarGrid(24, 16, r_in=0.3), _loop_polar),
        (lambda: CartesianMaskedGrid(squircle_mask(1.0, 4.0), 64),
         _loop_cartesian),
        (lambda: CartesianMaskedGrid(DomainSpec.disk(1.0), 32),
         _loop_cartesian),
        (lambda: CartesianMaskedGrid(DomainSpec.annulus(0.3, 1.0), 24),
         _loop_cartesian),
    ], ids=["polar-disk", "polar-annulus", "cartesian-squircle",
            "cartesian-disk", "cartesian-annulus"])
    def test_matches_loop_assembly_bitwise(self, make, oracle):
        g = make()
        K, (ea, eb), bnd = oracle(g)
        assert bitwise_equal(g.stiffness, K)
        a, b = g._edges
        assert sorted(zip(a.tolist(), b.tolist())) == sorted(zip(ea, eb))
        assert np.array_equal(g.boundary_adjacent, bnd)

    @pytest.mark.parametrize("r_in", [0.0, 0.3], ids=["disk", "annulus"])
    def test_angular_faces_carry_the_angular_conductance(self, r_in):
        g = PolarGrid(24, 16, r_in=r_in)
        ring = np.arange(g.n_nodes).reshape(g.n_r, g.n_theta)
        faces = -g.stiffness[ring.ravel(), np.roll(ring, -1, axis=1).ravel()]
        assert np.array_equal(
            np.asarray(faces).reshape(g.n_r, g.n_theta),
            np.repeat(g.angular_conductance[:, None], g.n_theta, axis=1))

    def test_grid_clipping_the_domain_has_off_grid_dirichlet_faces(self):
        # extent below the squircle's radius: the grid's edge cells are
        # inside, and their off-grid neighbours are Dirichlet faces
        g = CartesianMaskedGrid(squircle_mask(1.0, 4.0), 16, extent=0.9)
        K, _, bnd = _loop_cartesian(g)
        assert bitwise_equal(g.stiffness, K)
        assert np.array_equal(g.boundary_adjacent, bnd)

    def test_to_config(self):
        assert PolarGrid(24, 16, r_in=0.3).to_config() == {
            "type": "polar", "n_r": 24, "n_theta": 16}
        assert CartesianMaskedGrid(DomainSpec.disk(1.0), 24).to_config() == {
            "type": "cartesian", "n": 24, "extent": 1.0}
        with pytest.raises(TypeError, match="no config recipe"):
            PolarGrid(16, 8).quotient(cyclic(4)).to_config()


SYMMETRY_GRIDS = {
    "polar-disk-8x8": lambda: PolarGrid(8, 8),
    "polar-disk-12x12": lambda: PolarGrid(12, 12),
    "polar-disk-10x16": lambda: PolarGrid(10, 16),
    "polar-annulus-12x16": lambda: PolarGrid(12, 16, r_in=0.3),
    "polar-annulus-6x20": lambda: PolarGrid(6, 20, r_out=2.0, r_in=0.5),
    **{f"cartesian-{name}-{n}": (lambda dom=dom, n=n:
                                 CartesianMaskedGrid(dom, n))
       for n in (16, 24)
       for name, dom in (("disk", DomainSpec.disk(1.0)),
                         ("annulus", DomainSpec.annulus(0.3, 1.0)),
                         ("squircle-2", squircle_mask(1.0, 2.0)),
                         ("squircle-4", squircle_mask(1.0, 4.0)))},
}


def _accepted_groups(g):
    """Every group of order <= 2 n_theta (polar) or 8 (cartesian) with
    axes at a few angles, on and off the grid's steps, that
    ``cli._build_group`` accepts on the grid."""
    steps = g.n_theta if isinstance(g, PolarGrid) else 4
    step = math.pi / steps   # the grid's finest reflection-axis spacing
    specs = [{"kind": "cyclic", "order": h} for h in range(1, 2 * steps + 1)]
    specs += [{"kind": "dihedral", "order": h, "axis_angle": a}
              for h in range(1, 2 * steps + 1)
              for a in (0.0, step, step / 2.0, 3.0 * step, 1.0)]
    accepted = []
    for spec in specs:
        try:
            accepted.append(cli._build_group(spec, g))
        except cli.ConfigError:
            pass
    return accepted


class TestSymmetryGroup:
    """``grid.symmetry_group`` is the largest group the grid realizes:
    each accepted group's orbits lie inside its orbits, and it leaves radial
    fields invariant; a polar grid's orbits under it are the rings."""

    @pytest.mark.parametrize("name", SYMMETRY_GRIDS)
    def test_every_accepted_group_refines_its_orbits(self, name):
        g = SYMMETRY_GRIDS[name]()
        whole = g.quotient(g.symmetry_group).orbit_id
        groups = _accepted_groups(g)
        assert any(G.kind == "dihedral" and G.axis_angle != 0.0
                   for G in groups)
        assert any(G.order_h == g.symmetry_group.order_h for G in groups)
        for G in groups:
            for perm in g.group_permutations(G):
                assert np.array_equal(whole[perm], whole)

    @pytest.mark.parametrize("name", SYMMETRY_GRIDS)
    def test_radial_fields_are_invariant(self, name):
        g = SYMMETRY_GRIDS[name]()
        for profile in (lambda r: np.cos(3.0 * r) * (4.0 - r * r),
                        lambda r: np.exp(-r)):
            v = flow.field_from_radial(g, profile)
            assert (g.symmetry_defect(v.values, g.symmetry_group)
                    <= 1e-13 * v.sup)

    @pytest.mark.parametrize("name", [n for n in SYMMETRY_GRIDS
                                      if n.startswith("polar")])
    def test_polar_orbits_are_the_rings(self, name):
        g = SYMMETRY_GRIDS[name]()
        orbits = g.quotient(g.symmetry_group)
        assert orbits.n_nodes == g.n_r
        assert np.array_equal(orbits.orbit_id,
                              np.repeat(np.arange(g.n_r), g.n_theta))


# ---------------------------------------------------------------------------
# one group action: every grid maps the matrices of SymmetryGroup.elements()
# ---------------------------------------------------------------------------

def _ring_arithmetic_permutations(g, G):
    """A polar grid's permutations by index arithmetic on the group's order
    and axes, never reading a matrix: the oracle of its node map."""
    if g.n_theta % G.order_h != 0:
        raise GridSymmetryError(
            f"n_theta={g.n_theta} not a multiple of h={G.order_h}")
    n_t = g.n_theta
    i = np.arange(n_t)
    j = np.arange(g.n_r)
    perms = []
    # rotation by 2 pi k / h: preimage of node theta_i is theta_{i-s}
    for k in range(G.order_h):
        s = (k * n_t) // G.order_h
        ring_perm = (i - s) % n_t
        perms.append((j[:, None] * n_t + ring_perm[None, :]).ravel())
    if G.kind == "dihedral":
        for k in range(G.order_h):
            axis = G.axis_angle + math.pi * k / G.order_h
            # reflection: preimage of theta is 2*axis - theta
            steps = 2.0 * axis / g.dtheta
            if abs(steps - round(steps)) > geometry.STEP_TOL:
                raise GridSymmetryError(f"angle {2.0 * axis} is not a "
                                        f"multiple of dtheta={g.dtheta}")
            ring_perm = (round(steps) % n_t - i) % n_t
            perms.append((j[:, None] * n_t + ring_perm[None, :]).ravel())
    return perms


def _cell_lookup_permutations(g, G):
    """A cartesian grid's permutations by looking each element's preimages
    up among the node coordinates, as odd multiples of h/2, after the
    lattice's order gate h in {1, 2, 4}: the oracle of its node map."""
    if G.order_h not in (1, 2, 4):
        raise GridSymmetryError("cartesian grids support h in {1, 2, 4} only")

    def keys(pts):
        halves = 2.0 * pts / g.h
        odd = np.rint(halves)
        if np.max(np.abs(halves - odd)) > 2e-9:
            raise GridSymmetryError("a preimage is not a cell centre")
        return (odd[:, 0] * 4 * g.n + odd[:, 1]).astype(np.int64)

    nodes = keys(g.xy)
    order = np.argsort(nodes)
    perms = []
    for mat in G.elements():
        want = keys(g.xy @ mat)
        perm = order[np.minimum(np.searchsorted(nodes, want, sorter=order),
                                nodes.size - 1)]
        if np.any(nodes[perm] != want):
            raise GridSymmetryError("a preimage is not a node")
        perms.append(perm)
    return perms


ACTION_GRIDS = [
    *[(f"polar-{n_r}x{n_t}-{r_in:g}",
       lambda n_r=n_r, n_t=n_t, r_in=r_in: PolarGrid(n_r, n_t, r_in=r_in))
      for n_r, n_t in ((12, 8), (16, 8), (8, 15), (10, 12), (96, 32))
      for r_in in (0.0, 0.3)],
    *[(f"cartesian-{name}-{n}",
       lambda dom=dom, n=n: CartesianMaskedGrid(dom, n))
      for n in (16, 33)
      for name, dom in (("disk", DomainSpec.disk(1.0)),
                        ("squircle-4", squircle_mask(1.0, 4.0)),
                        ("squircle-0.7", squircle_mask(1.0, 0.7)),
                        ("annulus", DomainSpec.annulus(0.3, 1.0)))],
]


def _action_groups(g):
    """C_h and D_h for h = 1 .. 16, the dihedral ones about axes on and off
    the grid's steps."""
    steps = g.n_theta if isinstance(g, PolarGrid) else g.n
    axes = (0.0, math.pi / steps, math.pi / 4, math.pi / 2, 0.3)
    return [G for h in range(1, 17)
            for G in (cyclic(h), *(dihedral(h, a) for a in axes))]


def _realized(build, g, G):
    try:
        return build(g, G)
    except GridSymmetryError:
        return None


class TestOneGroupAction:
    def test_node_maps_equal_the_oracles_bitwise(self):
        cases = realized = 0
        for _, make in ACTION_GRIDS:
            g = make()
            oracle = (_ring_arithmetic_permutations
                      if isinstance(g, PolarGrid)
                      else _cell_lookup_permutations)
            for G in _action_groups(g):
                want = _realized(oracle, g, G)
                got = _realized(type(g).group_permutations, g, G)
                cases += 1
                assert (got is None) == (want is None), (g.to_config(), G)
                if got is None:
                    continue
                realized += 1
                assert len(got) == len(want) == G.size
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (cases, realized) == (1728, 310)

    @pytest.mark.parametrize("G", [cyclic(10 ** 400), cyclic(5),
                                   dihedral(10 ** 400, 0.3)],
                             ids=["C_10^400", "C_5", "D_10^400"])
    @pytest.mark.parametrize("make", [
        lambda: PolarGrid(8, 32),
        lambda: CartesianMaskedGrid(DomainSpec.disk(1.0), 16)],
        ids=["polar", "cartesian"])
    def test_order_gate_refuses_before_any_element(self, make, G,
                                                   monkeypatch):
        def built(self):
            raise AssertionError("elements built before the order gate")
        monkeypatch.setattr(SymmetryGroup, "elements", built)
        with pytest.raises(GridSymmetryError, match="does not divide"):
            make().group_permutations(G)

    @pytest.mark.parametrize("axis", [1e17, 1e300])
    def test_axis_whole_in_steps_only_as_a_float_is_refused(self, axis):
        # past 2^53 the step count 2 axis / dtheta has no fraction left, but
        # the reflection built about that axis is none of the grid's
        with pytest.raises(GridSymmetryError, match="not a multiple"):
            PolarGrid(8, 8).group_permutations(dihedral(4, axis))

    def test_orbit_grid_realizes_no_group(self):
        orbits = PolarGrid(16, 8).quotient(cyclic(4))
        for G in (cyclic(1), cyclic(4), dihedral(1)):
            with pytest.raises(GridSymmetryError, match="orbit"):
                orbits.group_permutations(G)
        with pytest.raises(GridSymmetryError):
            orbits.quotient(cyclic(2))

    @pytest.mark.parametrize("order", [4.0, 4.5, True, "4", None, 0, -4])
    def test_order_is_an_integer_at_least_one(self, order):
        for kind in ("cyclic", "dihedral"):
            with pytest.raises(ValueError, match="order_h must be an int"):
                SymmetryGroup(kind, order)

    def test_numpy_integer_order_is_the_int_order(self):
        for g in (PolarGrid(8, 16), CartesianMaskedGrid(
                squircle_mask(1.0, 4.0), 16)):
            for kind in (cyclic, dihedral):
                got = g.group_permutations(kind(np.int64(4)))
                want = g.group_permutations(kind(4))
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# the Perron pair's inverse iteration
# ---------------------------------------------------------------------------

class _CountedFactor:
    """A factor that counts its solves."""

    def __init__(self, factor):
        self.factor, self.solves = factor, 0

    def solve(self, rhs):
        self.solves += 1
        return self.factor.solve(rhs)


def _perron_solves(grid, monkeypatch):
    """The number of solves ``grid.perron`` makes with the factor of K
    that geometry builds for it."""
    factors = []
    splu = geometry.splu

    def counted(*args, **kwargs):
        factors.append(_CountedFactor(splu(*args, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(geometry, "splu", counted)
    assert grid.perron is not None
    assert len(factors) == 1
    return factors[0].solves


def _rings(n_r, n_theta):
    g = PolarGrid(n_r, n_theta)
    return g.quotient(g.symmetry_group)


PERRON_EXACT = {
    "rings-96x32": (lambda: _rings(96, 32), 14),
    "squircle-d4-64": (lambda: CartesianMaskedGrid(squircle_mask(), 64)
                       .quotient(dihedral(4)), 15),
}
PERRON_STALLED = {
    f"{kind}-{n_r}x64": (lambda n_r=n_r, kind=kind: PolarGrid(n_r, 64)
                         if kind == "full"
                         else PolarGrid(n_r, 64).quotient(cyclic(4)))
    for kind in ("full", "c4") for n_r in (128, 192, 256)}


class TestPerronSolves:
    """The inverse iteration stops at its bracket tolerance, or at the
    roundoff floor of the Collatz-Wielandt ratio, which on full polar grids
    with n_theta = 64 and their C4 orbit grids lies above that tolerance."""

    @pytest.mark.parametrize("name", PERRON_EXACT)
    def test_benchmark_grids_reach_the_tolerance(self, name, monkeypatch):
        build, solves = PERRON_EXACT[name]
        assert _perron_solves(build(), monkeypatch) == solves

    @pytest.mark.parametrize("name", PERRON_STALLED)
    def test_stalled_bracket_ends_the_iteration(self, name, monkeypatch):
        assert (_perron_solves(PERRON_STALLED[name](), monkeypatch)
                < geometry.PERRON_MAX_ITER)
