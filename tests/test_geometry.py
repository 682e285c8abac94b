import math

import numpy as np
import pytest
import scipy.sparse as sp

from lef import geometry
from lef.geometry import (CartesianMaskedGrid, DomainSpec, GridSymmetryError,
                          PolarGrid, check_admissible, cyclic, dihedral,
                          squircle_mask)


class TestGroups:
    def test_sizes(self):
        assert cyclic(4).size == 4
        assert dihedral(4).size == 8
        assert cyclic(1).size == 1

    def test_orbit_cardinality_generic_point(self):
        pt = np.array([0.3, 0.11])
        assert geometry.orbit_cardinality(cyclic(4), pt) == 4
        assert geometry.orbit_cardinality(dihedral(4), pt) == 8

    def test_orbit_cardinality_special_points(self):
        assert geometry.orbit_cardinality(cyclic(6), np.zeros(2)) == 1
        # a point on a reflection axis has half the dihedral orbit
        assert geometry.orbit_cardinality(dihedral(4), np.array([0.5, 0.0])) == 4

    def test_apply_group_element_rotates(self):
        G = cyclic(4)
        images = [geometry.apply_group_element(G, i, np.array([1.0, 0.0]))
                  for i in range(G.size)]
        assert any(np.allclose(img, [0.0, 1.0]) for img in images)
        assert any(np.allclose(img, [-1.0, 0.0]) for img in images)
        with pytest.raises(IndexError):
            geometry.apply_group_element(G, 4, np.array([1.0, 0.0]))


class TestAdmissibility:
    def test_c2_disk_rejected(self):
        assert check_admissible(cyclic(2), DomainSpec.disk(1.0)) is False

    def test_c4_disk_accepted(self):
        assert check_admissible(cyclic(4), DomainSpec.disk(1.0)) is True

    def test_d4_squircle_accepted(self):
        assert check_admissible(dihedral(4), squircle_mask(1.0, 4.0)) is True

    def test_annulus_accepted(self):
        assert check_admissible(cyclic(4), DomainSpec.annulus(0.3, 1.0)) is True


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
        dom = DomainSpec.symmetric_mask(
            lambda pts: np.maximum(np.abs(pts[:, 0]), np.abs(pts[:, 1])) < 1.0,
            bounding_radius=1.0)
        g = CartesianMaskedGrid(dom, 64)
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
