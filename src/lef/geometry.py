"""Planar symmetry groups, domains and discretization grids.

Groups are finite subgroups of O(2): cyclic C_h (h rotations) or dihedral
D_h (h rotations + h reflections).  A domain (``DomainSpec``) is the value
of a config ``domain`` section: a disk, an annulus or a squircle, given by
its radii and power.  ``check_admissible`` decides the hypothesis on a
(group, domain) pair exactly, from the group's order and axes and the
domain's shape: every x != 0 has at least 4 images and the domain is
G-invariant; ``convex_in_direction`` decides directional convexity as
exactly.  Grids come in two flavours, a polar finite-volume grid on
disks/annuli and a masked cartesian grid on any of the domains.  Both
expose the same surface: node coordinates, cell weights, a symmetric
stiffness matrix (discrete Dirichlet form), adjacency for flood fill,
``grid.symmetry_group`` (the largest group the grid realizes) and
``grid.group_permutations(G)``: one order gate (h divides that group's
order), then each matrix of ``G.elements()`` through the grid's one
node map to an exact node permutation.  Each grid lists its faces as
arrays (node pairs with conductances, plus a Dirichlet conductance per
node) and one assembly turns them into the stiffness, the adjacency and
the boundary-adjacent nodes.  ``grid.to_config()`` is the config
``grid`` section that, with ``grid.domain.to_config()``, rebuilds it.
``grid.quotient(G)`` is the grid of G-orbits of those nodes: the same
surface in orbit coordinates, on which the G-invariant fields live with
one unknown per orbit.

All objects here are immutable after construction, apart from the caches
a grid fills on demand: group permutations, orbit grids, K's band in
node order ``grid.stiffness_band`` when K is tridiagonal there (the ring
grid of a polar grid) and on a cartesian grid and its orbit grids
(row-major node numbering makes K a band of half-bandwidth at most n
there), the Perron pair ``grid.perron`` and the step factorizations that
the flow module stores in ``step_factors``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .energy import FLOAT_RANGE

# An angle is a whole number of steps when its step count is this close to
# an integer: the test of the polar node map (the turn of each matrix of
# SymmetryGroup.elements()) and of a squircle's symmetry axes.
STEP_TOL = 1e-9
# Perron pair: inverse iteration stops once the Collatz-Wielandt bracket
# [min, max] of (K psi)_i / (w_i psi_i) is this narrow (relative), once it
# is no narrower than the bracket before (its roundoff floor, above this on
# full polar grids with n_theta = 64 and their C4 orbit grids), or after
# PERRON_MAX_ITER solves; mu is the last bracket's lower end shrunk by
# PERRON_SAFETY, which absorbs the roundoff of K psi.
PERRON_BRACKET_TOL = 1e-9
PERRON_MAX_ITER = 500
PERRON_SAFETY = 1e-6


class GridSymmetryError(ValueError):
    """The grid does not realize a group element as a node permutation."""


# ---------------------------------------------------------------------------
# symmetry groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryGroup:
    """Cyclic or dihedral subgroup of O(2).

    ``order_h`` counts the rotations; a dihedral group additionally carries
    ``order_h`` reflections about lines at angles
    ``axis_angle + k*pi/order_h``.
    """

    kind: str  # 'cyclic' | 'dihedral'
    order_h: int
    axis_angle: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cyclic", "dihedral"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        h = self.order_h
        if isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < 1:
            raise ValueError(f"order_h must be an integer >= 1, got {h!r}")

    @property
    def size(self) -> int:
        return self.order_h if self.kind == "cyclic" else 2 * self.order_h

    def elements(self) -> list[np.ndarray]:
        """The group elements as matrices [[c, -d s], [s, d c]], c = cos t and
        s = sin t: rotations (d = 1) by t = 2 pi k / h first, then reflections
        (d = -1) about the axes at t / 2 = axis_angle + pi k / h."""
        h = self.order_h
        turns = [(2.0 * math.pi * k / h, 1.0) for k in range(h)]
        if self.kind == "dihedral":
            turns += [(2.0 * (self.axis_angle + math.pi * k / h), -1.0)
                      for k in range(h)]
        return [np.array([[math.cos(t), -d * math.sin(t)],
                          [math.sin(t), d * math.cos(t)]]) for t, d in turns]


def cyclic(h: int) -> SymmetryGroup:
    return SymmetryGroup("cyclic", h)


def dihedral(h: int, axis_angle: float = 0.0) -> SymmetryGroup:
    return SymmetryGroup("dihedral", h, axis_angle)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Bounded planar domain, the value of a config ``domain`` section:
    a disk r < ``radius``, an annulus ``inner_radius`` < r < ``radius`` or
    a squircle (|x|/R)^q + (|y|/R)^q < 1 with R = ``radius`` and
    q = ``power``."""

    shape: str  # 'disk' | 'annulus' | 'squircle'
    radius: float
    inner_radius: float = 0.0
    power: float = 0.0

    def to_config(self) -> dict:
        """The config ``domain`` section that rebuilds this domain."""
        if self.shape == "disk":
            return {"type": "disk", "radius": self.radius}
        if self.shape == "annulus":
            return {"type": "annulus", "a": self.inner_radius,
                    "b": self.radius}
        return {"type": "squircle", "radius": self.radius, "power": self.power}

    @staticmethod
    def disk(radius: float) -> "DomainSpec":
        if radius <= 0:
            raise ValueError("disk radius must be positive")
        return DomainSpec("disk", radius)

    @staticmethod
    def annulus(a_in: float, b_out: float) -> "DomainSpec":
        if not 0 < a_in < b_out:
            raise ValueError("need 0 < a_in < b_out")
        return DomainSpec("annulus", b_out, inner_radius=a_in)

    @property
    def contains_origin(self) -> bool:
        return self.shape != "annulus"

    def inside(self, pts: np.ndarray) -> np.ndarray:
        """Boolean array: is each point strictly inside the domain."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.shape == "squircle":
            q = self.power
            with np.errstate(**FLOAT_RANGE):  # past the range, inf < 1
                scaled = np.abs(pts) / self.radius
                return scaled[:, 0] ** q + scaled[:, 1] ** q < 1.0
        r = np.hypot(pts[:, 0], pts[:, 1])
        if self.shape == "disk":
            return r < self.radius
        return (r > self.inner_radius) & (r < self.radius)


def squircle_mask(radius: float = 1.0, power: float = 4.0) -> DomainSpec:
    """D4-symmetric convex 'squircle' |x|^q + |y|^q < radius^q."""
    return DomainSpec("squircle", radius, power=power)


def check_admissible(G: SymmetryGroup, domain: DomainSpec) -> bool:
    """True iff |Gx| >= 4 for every x != 0 and the domain is G-invariant.

    The orbit condition is ``order_h >= 4``: the h rotations move any
    x != 0 to h distinct points, and for h < 4 every point of C_h, and
    every point on an axis of D_h, has fewer than 4 images.  Disks,
    annuli and squircles of power 2 (disks) are invariant under every
    group.  Any other squircle is invariant under C4, and under D4 when its
    axes lie at multiples of pi/4 (to STEP_TOL), and under no other group
    of order >= 4: each holds a rotation by less than pi/2 or a reflection
    about another axis.
    """
    if G.order_h < 4:
        return False
    if domain.shape != "squircle" or domain.power == 2.0:
        return True
    steps = G.axis_angle / (math.pi / 4.0)
    return G.order_h == 4 and (G.kind == "cyclic"
                               or abs(steps - round(steps)) <= STEP_TOL)


def convex_in_direction(domain: DomainSpec, direction_angle: float) -> bool:
    """True iff every line along ``direction_angle`` meets the domain in
    one interval, if at all.  Disks and squircles of power q >= 1 (q-norm
    balls) are convex; an annulus is convex along no direction (the line
    through the centre crosses the hole).  A squircle with q < 1 is convex
    only along its axes, at multiples of pi/2 (to STEP_TOL): each quadrant's
    boundary is a strictly convex arc from cusp to cusp, so for any other
    slope a secant crosses the arc twice and leaves the domain between."""
    if domain.shape == "annulus":
        return False
    if domain.shape == "disk" or domain.power >= 1.0:
        return True
    steps = direction_angle / (math.pi / 2.0)
    return abs(steps - round(steps)) <= STEP_TOL


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerronPair:
    """A positive field psi (max 1) and mu > 0 with K psi >= mu W psi
    entrywise: a lower bound for the first Dirichlet eigenvalue lambda_1 of
    the pencil (K, W), and psi close to its eigenfunction."""

    psi: np.ndarray
    mu: float


@dataclass(frozen=True)
class StiffnessBand:
    """K as a symmetric band of half-bandwidth ``kd`` in node order, its
    upper band in LAPACK ``ab`` storage: ``ab[kd + i - j, j] = K[i, j]``
    for j - kd <= i <= j, shape (kd + 1, n), in C order so that each
    diagonal is a contiguous row (at kd = 1, ``ab[1]`` is K's diagonal and
    ``ab[0, 1:]`` its off-diagonal); ``row_sums`` is K 1, each node's
    conductance to the zero boundary value."""

    kd: int
    ab: np.ndarray
    row_sums: np.ndarray


def _perron_pair(stiffness: sp.csr_matrix,
                 weights: np.ndarray) -> PerronPair | None:
    """Inverse iteration psi <- K^{-1} W psi / ||.||_inf from psi = 1.

    None unless every off-diagonal entry of K is <= 0.  Then K is a
    Stieltjes matrix, K^{-1} >= 0 entrywise and every iterate is positive;
    mu is certified by the Collatz-Wielandt bound
    min_i (K psi)_i / (w_i psi_i) <= lambda_1 however far the iteration got.
    """
    coo = stiffness.tocoo()
    if np.any(coo.data[coo.row != coo.col] > 0.0):
        return None
    lu = splu(stiffness.tocsc())
    psi = np.ones(stiffness.shape[0])
    width = math.inf
    for _ in range(PERRON_MAX_ITER):
        psi = lu.solve(weights * psi)
        psi /= np.max(psi)
        ratio = (stiffness @ psi) / (weights * psi)
        lo, hi = float(np.min(ratio)), float(np.max(ratio))
        if hi - lo <= PERRON_BRACKET_TOL * lo or hi - lo >= width:
            break
        width = hi - lo
    if not (lo > 0.0 and np.all(psi > 0.0)):
        return None
    return PerronPair(psi, (1.0 - PERRON_SAFETY) * lo)


def _group_key(G: SymmetryGroup) -> tuple:
    return (G.kind, G.order_h, round(G.axis_angle, 12))


def _assemble(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
              dirichlet: np.ndarray) -> tuple[sp.csr_matrix, tuple]:
    """Finite-volume stiffness of n nodes: face k joins nodes a[k] and
    b[k] with conductance c[k], and dirichlet[i] is the conductance of
    node i's faces to the zero boundary value.  Returns K (csr) and the
    face list (a, b).

    The diagonal sums each node's face conductances in face order, a
    before b, and then adds its Dirichlet conductance: another summation
    order can change K in the last bit.
    """
    diag = np.zeros(n)
    np.add.at(diag, np.column_stack([a, b]).ravel(), np.repeat(c, 2))
    diag += dirichlet
    nodes = np.arange(n)
    stiffness = sp.csr_matrix(
        (np.concatenate([-c, -c, diag]),
         (np.concatenate([a, b, nodes]), np.concatenate([b, a, nodes]))),
        shape=(n, n))
    return stiffness, (a, b)


class _GridBase:
    """Shared helpers; concrete grids define nodes, weights and stiffness."""

    #: (n,) cell quadrature weights
    weights: np.ndarray
    #: (n, 2) node coordinates
    xy: np.ndarray
    #: symmetric positive-definite discrete Dirichlet form (csr)
    stiffness: sp.csr_matrix
    #: nodes adjacent to the domain boundary
    boundary_adjacent: np.ndarray
    domain: DomainSpec
    #: whether K's band in node order (``stiffness_band``) is kept at any
    #: half-bandwidth, not only a tridiagonal one: cartesian grids and their
    #: orbit grids.  Full polar grids keep SuperLU for the step, whose
    #: step-solve spans the benchmark harness's own tests pin on polar
    #: grids (perfbench/test_harness.py)
    band_in_node_order = False

    def __init__(self):
        self._perm_cache: dict = {}
        self._quotients: dict = {}
        #: factors of W + dt K per step size dt, filled by flow.step
        self.step_factors: dict = {}

    @property
    def n_nodes(self) -> int:
        return self.xy.shape[0]

    def to_config(self) -> dict:
        """The config ``grid`` section that, with ``domain.to_config()``,
        rebuilds this grid."""
        raise TypeError(f"{type(self).__name__} has no config recipe")

    def dirichlet_form(self, v: np.ndarray) -> float:
        """Quadratic form v . K v, the discrete version of ||grad v||^2.

        When K is tridiagonal in node order it is the sum over faces,
        sum_i s_i v_i^2 + sum_i (-e_i) (v_{i+1} - v_i)^2 with s = K 1 and e
        the off-diagonal, both read from ``stiffness_band``: nonnegative
        terms, no cancellation.
        """
        if self._stiffness_kd != 1:
            return float(v @ (self.stiffness @ v))
        band = self.stiffness_band
        jump = v[1:] - v[:-1]
        return float(band.row_sums @ (v * v) - band.ab[0, 1:] @ (jump * jump))

    def weighted_norm(self, v: np.ndarray) -> float:
        return math.sqrt(float(self.weights @ (v * v)))

    @cached_property
    def _stiffness_kd(self) -> int:
        """K's half-bandwidth in node order, read from its nonzero entries
        (cached): the Dirichlet form reads it without building the band."""
        coo = self.stiffness.tocoo()
        return int(np.max(np.abs(coo.row - coo.col)[coo.data != 0.0],
                          initial=0))

    @cached_property
    def stiffness_band(self) -> StiffnessBand | None:
        """K's band in node order (cached) when K is tridiagonal there, as
        on the ring grid of a polar grid, or on a grid with
        ``band_in_node_order``; None for any other grid.  The row sums add
        K's diagonals to its diagonal by distance from it, the upper one
        before the lower."""
        kd = self._stiffness_kd
        if kd != 1 and not self.band_in_node_order:
            return None
        ab = np.zeros((kd + 1, self.n_nodes))
        row_sums = self.stiffness.diagonal()
        ab[kd] = row_sums
        for k in range(1, kd + 1):
            ab[kd - k, k:] = diagonal = self.stiffness.diagonal(k)
            row_sums[:-k] += diagonal
            row_sums[k:] += diagonal
        return StiffnessBand(kd, ab, row_sums)

    @cached_property
    def perron(self) -> PerronPair | None:
        """Positive first-eigenvector approximation psi and a certified
        lower bound mu of lambda_1 (cached); None when K has a positive
        off-diagonal entry, i.e. is not an M-matrix."""
        return _perron_pair(self.stiffness, self.weights)

    # -- adjacency / flood fill -------------------------------------------

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric boolean node adjacency (4-neighbor style)."""
        a, b = self._edges
        n = self.n_nodes
        data = np.ones(len(a), dtype=bool)
        m = sp.coo_matrix((data, (a, b)), shape=(n, n))
        return (m + m.T).tocsr()

    # -- group action -------------------------------------------------------

    def group_permutations(self, G: SymmetryGroup) -> list[np.ndarray]:
        """Node permutations realizing each group element.

        ``new_values = values[perm]`` gives the transformed field, i.e.
        ``perm[a]`` is the node index of the preimage of node ``a``.
        Cached per group.  One order gate, h dividing the order of
        ``symmetry_group``, runs before any element is built; GridSymmetryError
        there or where ``_node_map`` refuses a matrix of ``G.elements()``.
        """
        key = _group_key(G)
        if key not in self._perm_cache:
            if self.symmetry_group.order_h % G.order_h:
                raise GridSymmetryError(
                    f"h={G.order_h} does not divide the grid's "
                    f"{self.symmetry_group.order_h} rotations")
            self._perm_cache[key] = [self._node_map(m) for m in G.elements()]
        return self._perm_cache[key]

    def symmetrize(self, values: np.ndarray, G: SymmetryGroup) -> np.ndarray:
        perms = self.group_permutations(G)
        acc = np.zeros_like(values)
        for perm in perms:
            acc += values[perm]
        return acc / len(perms)

    def symmetry_defect(self, values: np.ndarray, G: SymmetryGroup) -> float:
        """max over group elements of ||v o g - v||_inf."""
        perms = self.group_permutations(G)
        return max(float(np.max(np.abs(values[perm] - values)))
                   for perm in perms)

    # -- orbit coordinates ----------------------------------------------------

    def quotient(self, G: SymmetryGroup) -> "OrbitGrid":
        """The grid of G-orbits of this grid's nodes (cached per group)."""
        key = _group_key(G)
        if key not in self._quotients:
            self._quotients[key] = OrbitGrid(self, G)
        return self._quotients[key]


class PolarGrid(_GridBase):
    """Cell-centered finite-volume grid in polar coordinates.

    Nodes sit at ``r_j = r_in + (j + 1/2) dr``, ``theta_i = i dtheta``.
    Dirichlet data are imposed at the faces ``r = r_out`` (and ``r = r_in``
    for annuli) at distance ``dr/2`` from the adjacent node.  The node map
    turns each matrix of ``SymmetryGroup.elements()`` that rotates by a
    multiple of ``dtheta`` or reflects about an axis at a multiple of
    ``dtheta/2`` into a node permutation by index arithmetic.
    """

    def __init__(self, n_r: int, n_theta: int, r_out: float = 1.0,
                 r_in: float = 0.0):
        if n_r < 2 or n_theta < 4:
            raise ValueError("need n_r >= 2 and n_theta >= 4")
        if not 0 <= r_in < r_out:
            raise ValueError("need 0 <= r_in < r_out")
        super().__init__()
        self.n_r, self.n_theta = n_r, n_theta
        self.r_in, self.r_out = r_in, r_out
        self.dr = dr = (r_out - r_in) / n_r
        self.dtheta = dth = 2.0 * math.pi / n_theta
        self.domain = (DomainSpec.disk(r_out) if r_in == 0.0
                       else DomainSpec.annulus(r_in, r_out))

        self.r_nodes = r_in + (np.arange(n_r) + 0.5) * dr
        # per ring, the conductance of each face between angular neighbours
        self.angular_conductance = dr / (self.r_nodes * dth)
        rr = np.repeat(self.r_nodes, n_theta)
        tt = np.tile(np.arange(n_theta) * dth, n_r)
        self.xy = np.column_stack([rr * np.cos(tt), rr * np.sin(tt)])
        self.weights = rr * dr * dth

        # faces: radial between rings j-1 and j, then angular within each
        # ring (periodic); Dirichlet faces at half-cell distance dr/2
        ring = np.arange(self.n_nodes).reshape(n_r, n_theta)
        r_face = r_in + np.arange(1, n_r) * dr
        a = np.concatenate([ring[:-1].ravel(), ring.ravel()])
        b = np.concatenate([ring[1:].ravel(),
                            np.roll(ring, -1, axis=1).ravel()])
        c = np.repeat(np.concatenate([r_face * dth / dr,
                                      self.angular_conductance]), n_theta)
        dirichlet = np.zeros(self.n_nodes)
        dirichlet[ring[-1]] = r_out * dth / (dr / 2.0)
        if r_in > 0.0:
            dirichlet[ring[0]] = r_in * dth / (dr / 2.0)
        self.stiffness, self._edges = _assemble(self.n_nodes, a, b, c,
                                                dirichlet)
        self.boundary_adjacent = dirichlet > 0.0

    def to_config(self) -> dict:
        return {"type": "polar", "n_r": self.n_r, "n_theta": self.n_theta}

    @property
    def symmetry_group(self) -> SymmetryGroup:
        """D_{n_theta}, the largest group the grid realizes as node
        permutations: its orbits are the rings."""
        return dihedral(self.n_theta)

    @property
    def origin_ring(self) -> np.ndarray | None:
        """Indices of the innermost ring (proxy for the origin node)."""
        if self.r_in > 0.0:
            return None
        return np.arange(self.n_theta)

    def _node_map(self, mat: np.ndarray) -> np.ndarray:
        """Permutation for a matrix whose turn atan2(mat[1, 0], mat[0, 0])
        is a whole number s of steps dtheta: node theta_i's preimage is
        theta_{d (i-s)}, d = det mat (1 rotates, -1 reflects)."""
        turn = math.atan2(mat[1, 0], mat[0, 0]) / self.dtheta
        s = round(turn)
        if abs(turn - s) > STEP_TOL:
            raise GridSymmetryError(f"turn {turn * self.dtheta} is not a "
                                    f"multiple of dtheta={self.dtheta}")
        det = 1 if mat[0, 0] * mat[1, 1] > mat[0, 1] * mat[1, 0] else -1
        ring_perm = det * (np.arange(self.n_theta) - s) % self.n_theta
        return (np.arange(self.n_r)[:, None] * self.n_theta
                + ring_perm[None, :]).ravel()


class CartesianMaskedGrid(_GridBase):
    """Cell-centered uniform cartesian grid restricted to a domain mask.

    Cells tile ``[-extent, extent]^2``; interior nodes are the cell centers
    strictly inside the domain, Dirichlet zero is imposed at the faces
    toward exterior cells (half-cell distance).  The node map turns each
    matrix of ``SymmetryGroup.elements()`` that maps the mask's cell centres
    onto themselves (D4's, axes at multiples of pi/4) into a node
    permutation.  Row-major node numbering makes K a band in node order.
    """

    band_in_node_order = True

    def __init__(self, domain: DomainSpec, n: int, extent: float | None = None):
        if n < 4:
            raise ValueError("need n >= 4")
        super().__init__()
        self.domain = domain
        self.n = n
        self.extent = float(extent if extent is not None else domain.radius)
        self.h = 2.0 * self.extent / n

        coords = (np.arange(n) + 0.5) * self.h - self.extent
        X, Y = np.meshgrid(coords, coords, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        inside = domain.inside(pts)
        self._interior_of_flat = -np.ones(n * n, dtype=np.int64)
        self._interior_of_flat[inside] = np.arange(int(inside.sum()))
        self.xy = pts[inside]
        self.weights = np.full(self.xy.shape[0], self.h ** 2)

        # faces: x- then y-neighbour pairs of inside cells, conductance 1;
        # every 4-neighbour outside or off the grid is a Dirichlet face at
        # half-cell distance, conductance 2
        mask = inside.reshape(n, n)
        index = self._interior_of_flat.reshape(n, n)
        x_pair = mask[:-1] & mask[1:]
        y_pair = mask[:, :-1] & mask[:, 1:]
        a = np.concatenate([index[:-1][x_pair], index[:, :-1][y_pair]])
        b = np.concatenate([index[1:][x_pair], index[:, 1:][y_pair]])
        padded = np.pad(mask, 1)
        neighbours_inside = (padded[2:, 1:-1].astype(np.int64)
                             + padded[:-2, 1:-1] + padded[1:-1, 2:]
                             + padded[1:-1, :-2])
        dirichlet = 2.0 * (4 - neighbours_inside[mask])
        self.stiffness, self._edges = _assemble(
            self.n_nodes, a, b, np.ones(a.size), dirichlet)
        self.boundary_adjacent = dirichlet > 0.0

    def to_config(self) -> dict:
        return {"type": "cartesian", "n": self.n, "extent": self.extent}

    @property
    def symmetry_group(self) -> SymmetryGroup:
        """D4, the symmetry of the cell lattice centred on the origin: the
        largest group the grid realizes as node permutations.  Every
        domain kind is D4-invariant; ``_node_map`` raises
        GridSymmetryError for a mask that is not."""
        return dihedral(4)

    @property
    def origin_ring(self) -> np.ndarray | None:
        if not self.domain.contains_origin:
            return None
        d2 = np.einsum("ij,ij->i", self.xy, self.xy)
        near = np.flatnonzero(d2 <= 2.01 * (self.h / 2.0) ** 2)
        return near if near.size else np.array([int(np.argmin(d2))])

    def _node_map(self, mat: np.ndarray) -> np.ndarray:
        """Permutation for an orthogonal map that permutes cell centers."""
        src = self.xy @ mat  # mat is orthogonal: inverse = transpose
        cell = np.rint((src + self.extent) / self.h - 0.5).astype(np.int64)
        err = np.max(np.abs(src - ((cell + 0.5) * self.h - self.extent)))
        if err > 1e-9 * self.h:
            raise GridSymmetryError("group element does not map cell centers "
                                    "to cell centers")
        perm = self._interior_of_flat[cell[:, 0] * self.n + cell[:, 1]]
        if np.any(perm < 0):
            raise GridSymmetryError("domain mask is not invariant on the grid")
        return perm


class OrbitGrid(_GridBase):
    """Grid whose nodes are the G-orbits of a parent grid's nodes.

    Group elements act as node permutations that commute with the parent's
    stiffness K and weights W, so the G-invariant fields are exactly the
    fields v = B c constant on orbits, with B the n x m orbit-indicator
    matrix.  In orbit coordinates c the weights are B^T w (orbit weight
    sums) and the stiffness is B^T K B: quadratures, Dirichlet forms,
    Laplacians and linear solves here equal their lifted counterparts on
    the parent grid, with one unknown per orbit.  ``flow.ScalarField.on``
    and ``lifted`` move fields between the grids by ``orbit_id``.
    """

    def __init__(self, parent: _GridBase, G: SymmetryGroup):
        super().__init__()
        perms = parent.group_permutations(G)
        # the permutation list is a full group, so {perm[a]} is the orbit of
        # a; its smallest node index labels the orbit
        reps, self.orbit_id = np.unique(np.min(np.stack(perms), axis=0),
                                        return_inverse=True)
        n = parent.n_nodes
        basis = sp.csr_matrix((np.ones(n), (np.arange(n), self.orbit_id)),
                              shape=(n, reps.size))
        self.parent = parent
        # orbits keep the parent's node order (each is labelled by its
        # smallest node), so K stays a narrow band: kd 27 on the squircle's
        # D4 orbits of cartesian 64, against 64 on the full grid
        self.band_in_node_order = parent.band_in_node_order
        self.xy = parent.xy[reps]   # one representative node per orbit
        self.weights = np.bincount(self.orbit_id, weights=parent.weights)
        self.stiffness = (basis.T @ parent.stiffness @ basis).tocsr()

    def group_permutations(self, G: SymmetryGroup) -> list[np.ndarray]:
        """Refused: an orbit grid realizes no group as node permutations."""
        raise GridSymmetryError("an orbit grid's nodes are orbits")
