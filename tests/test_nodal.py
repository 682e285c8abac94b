import dataclasses

import numpy as np
import pytest

from lef import energy, flow, geometry, nodal
from tests.conftest import angular_bump, ring_bump


@pytest.fixture(scope="module")
def grid():
    return geometry.PolarGrid(48, 32)


def _two_rings(grid, collar=0.0):
    """+ inside r = 0.5, - outside: an interior nodal circle; the nodes at
    r > 1 - collar are set to zero (a one-signed Dirichlet collar)."""
    r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
    vals = np.where(r < 0.5, 1.0 - 2.0 * r, -np.sin(np.pi * (2.0 * r - 1.0)))
    return flow.ScalarField(grid, np.where(r > 1.0 - collar, 0.0, vals))


def _polar(n_r, n_theta):
    g = geometry.PolarGrid(n_r, n_theta)
    r = np.hypot(g.xy[:, 0], g.xy[:, 1])
    # cos(theta + dtheta/2) vanishes on the diameter half-way between two
    # node rays, so no node lies on its nodal line
    c = np.cos(np.arctan2(g.xy[:, 1], g.xy[:, 0]) + g.dtheta / 2.0)
    return g, r, c


class TestDecompose:
    def test_four_petal_field(self, grid):
        v = angular_bump(grid, 2, r0=0.5, width=0.25)
        dec = nodal.decompose(v)
        assert dec.n_domains == 4
        assert sorted(dec.signs.tolist()) == [-1, -1, 1, 1]

    def test_two_ring_field(self, grid):
        dec = nodal.decompose(_two_rings(grid))
        assert dec.n_domains == 2
        assert set(dec.signs.tolist()) == {-1, 1}

    def test_zero_field_yields_zero_domains(self, grid):
        dec = nodal.decompose(flow.ScalarField(grid, np.zeros(grid.n_nodes)))
        assert dec.n_domains == 0
        assert dec.boundary_contact is False

    def test_record_is_frozen(self, grid):
        dec = nodal.decompose(angular_bump(grid, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.boundary_contact = False
        for array in (dec.labels, dec.signs):
            with pytest.raises(ValueError):
                array[0] = 0


def _at_the_band_edge(g):
    """A one-signed bump with one node at -tau: in the zero band."""
    v = ring_bump(g, 0.4, 0.8)
    values = v.values.copy()
    values[0] = -nodal.ZERO_BAND_FACTOR * np.max(values)
    return flow.ScalarField(g, values)


# the fields of these tests, by name
FIELDS = {
    "four-petals": lambda g: angular_bump(g, 2, r0=0.5, width=0.25),
    "two-rings": _two_rings,
    "collar": lambda g: _two_rings(g, collar=0.05),
    "zero": lambda g: flow.ScalarField(g, np.zeros(g.n_nodes)),
    "bump": lambda g: ring_bump(g, 0.4, 0.8),
    "negative-bump": lambda g: ring_bump(g, 0.2, 0.8, sign=-1.0),
    "band-edge": _at_the_band_edge,
    "diameter": lambda g: flow.ScalarField(
        g, np.cos(np.arctan2(g.xy[:, 1], g.xy[:, 0]) + g.dtheta / 2.0)),
}


@pytest.mark.parametrize("make", FIELDS.values(), ids=FIELDS.keys())
def test_sign_change_is_domains_of_both_signs(grid, make):
    # the flow's sign test and the nodal decomposition share one zero band
    v = make(grid)
    signs = set(nodal.decompose(v).signs.tolist())
    assert flow._is_sign_changing(v.values) == (signs == {-1, 1})


class TestBoundaryContact:
    def test_interior_nodal_line_not_flagged(self, grid):
        # two concentric rings: the zero circle is interior
        dec = nodal.decompose(_two_rings(grid))
        assert dec.boundary_contact is False

    def test_one_signed_collar_not_flagged(self, grid):
        # a zero-band collar at the boundary borders the outer ring only
        dec = nodal.decompose(_two_rings(grid, collar=0.05))
        assert dec.n_domains == 2
        assert np.all(dec.labels[grid.boundary_adjacent] == 0)
        assert dec.boundary_contact is False

    def test_radial_nodal_lines_flagged(self, grid):
        # petals separated by diameters through nodes: the zero band reaches
        # the boundary between domains of opposite sign
        r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
        th = np.arctan2(grid.xy[:, 1], grid.xy[:, 0])
        v = flow.ScalarField(grid, np.sin(np.pi * r) * np.cos(2 * th))
        dec = nodal.decompose(v)
        assert dec.boundary_contact is True

    @pytest.mark.parametrize("envelope", [
        lambda r: 1.0, lambda r: 1.0 - r * r, lambda r: np.sin(np.pi * r)],
        ids=["cos", "parabola", "sine"])
    def test_diameter_between_nodes_flagged(self, envelope):
        # the nodal diameter passes between nodes of opposite sign: the
        # zero band is empty and the line crosses edges up to the boundary
        g, r, c = _polar(96, 32)
        dec = nodal.decompose(flow.ScalarField(g, envelope(r) * c))
        assert dec.n_domains == 2
        assert not np.any(dec.labels == 0)
        assert dec.boundary_contact is True

    def test_squircle_line_between_nodes_flagged(self):
        g = geometry.CartesianMaskedGrid(geometry.squircle_mask(1.0, 4.0), 64)
        x, y = g.xy[:, 0], g.xy[:, 1]
        dec = nodal.decompose(flow.ScalarField(g, x * (1 - x**4 - y**4)))
        assert dec.n_domains == 2
        assert dec.boundary_contact is True


class TestOrigin:
    def test_origin_domain_identified(self, grid):
        dec = nodal.decompose(_two_rings(grid))
        assert dec.origin_domain is not None
        assert dec.signs[dec.origin_domain - 1] == 1

    def test_origin_in_zero_band_returns_none(self, grid):
        dec = nodal.decompose(ring_bump(grid, 0.4, 0.8))
        assert dec.origin_domain is None

    def test_split_origin_ring_returns_none(self):
        g, r, c = _polar(24, 16)
        assert nodal.decompose(flow.ScalarField(g, c)).origin_domain is None

    def test_annulus_grid_has_no_origin_domain(self):
        g = geometry.PolarGrid(16, 16, r_in=0.3)
        dec = nodal.decompose(ring_bump(g, 0.4, 0.8))
        assert dec.n_domains == 1
        assert dec.origin_domain is None


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
