import numpy as np
import pytest

from lef import energy, flow, geometry, nodal
from tests.conftest import angular_bump, ring_bump


@pytest.fixture(scope="module")
def grid():
    return geometry.PolarGrid(48, 32)


class TestDecompose:
    def test_four_petal_field(self, grid):
        v = angular_bump(grid, 2, r0=0.5, width=0.25)
        dec = nodal.decompose(v)
        assert dec.n_domains == 4
        assert sorted(dec.signs.tolist()) == [-1, -1, 1, 1]

    def test_two_ring_field(self, grid):
        r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
        v = flow.ScalarField(grid, np.where(r < 0.5, 1.0 - 2.0 * r,
                                            -np.sin(np.pi * (2.0 * r - 1.0))))
        dec = nodal.decompose(v)
        assert dec.n_domains == 2
        assert set(dec.signs.tolist()) == {-1, 1}

    def test_zero_field_yields_zero_domains(self, grid):
        dec = nodal.decompose(flow.ScalarField(grid, np.zeros(grid.n_nodes)))
        assert dec.n_domains == 0

    def test_negative_tau_rejected(self, grid):
        v = ring_bump(grid, 0.2, 0.8)
        with pytest.raises(ValueError):
            nodal.decompose(v, tau=-1.0)

    def test_summary_keys(self, grid):
        dec = nodal.decompose(angular_bump(grid, 2))
        s = dec.summary()
        assert s["n_domains"] == 4


class TestBoundaryContact:
    def test_interior_nodal_line_not_flagged(self, grid):
        # two concentric rings: the zero circle is interior
        r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
        v = flow.ScalarField(grid, np.where(r < 0.5, 1.0 - 2.0 * r,
                                            -np.sin(np.pi * (2.0 * r - 1.0))))
        dec = nodal.decompose(v)
        assert nodal.nodal_line_touches_boundary(dec) is False

    def test_radial_nodal_lines_flagged(self, grid):
        # petals separated by diameters: nodal lines reach the boundary
        r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
        th = np.arctan2(grid.xy[:, 1], grid.xy[:, 0])
        v = flow.ScalarField(grid, np.sin(np.pi * r) * np.cos(2 * th))
        dec = nodal.decompose(v)
        assert nodal.nodal_line_touches_boundary(dec) is True

    def test_domain_id_bounds_checked(self, grid):
        dec = nodal.decompose(ring_bump(grid, 0.2, 0.8))
        with pytest.raises(IndexError):
            nodal.touches_boundary(dec, dec.n_domains + 1)


class TestOrigin:
    def test_origin_domain_identified(self, grid):
        r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
        v = flow.ScalarField(grid, np.where(r < 0.5, 1.0 - 2.0 * r,
                                            -np.sin(np.pi * (2.0 * r - 1.0))))
        dec = nodal.decompose(v)
        dom = nodal.contains_origin(dec)
        assert dom is not None
        assert dec.signs[dom - 1] == 1

    def test_origin_in_zero_band_returns_none(self, grid):
        v = ring_bump(grid, 0.4, 0.8)
        dec = nodal.decompose(v)
        assert nodal.contains_origin(dec) is None

    def test_annulus_grid_raises(self):
        g = geometry.PolarGrid(16, 16, r_in=0.3)
        v = ring_bump(g, 0.4, 0.8)
        with pytest.raises(ValueError):
            nodal.contains_origin(nodal.decompose(v))


class TestRestrictionAndEnergy:
    def test_per_domain_energies_sum(self, grid):
        p = 5.0
        v = angular_bump(grid, 2)
        dec = nodal.decompose(v)
        reports = nodal.per_domain_energy(v, dec, p)
        assert len(reports) == dec.n_domains
        total = energy.field_energy(v, p).energy
        # restrictions drop the zero band, so the match is approximate
        assert sum(r.energy for r in reports) == pytest.approx(total, rel=0.05)

    def test_symmetry_check(self, grid):
        # concentric rings: every domain is invariant under any rotation
        r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
        v = flow.ScalarField(grid, np.where(r < 0.5, 1.0 - 2.0 * r,
                                            -np.sin(np.pi * (2.0 * r - 1.0))))
        dec = nodal.decompose(v)
        recs = nodal.domain_symmetry_check(dec, geometry.cyclic(4))
        assert all(rec["is_G_symmetric"] for rec in recs)
        # petals of cos(2 theta) permute under C4: not individually invariant
        dec2 = nodal.decompose(angular_bump(grid, 2))
        recs2 = nodal.domain_symmetry_check(dec2, geometry.cyclic(4))
        assert not any(rec["is_G_symmetric"] for rec in recs2)
