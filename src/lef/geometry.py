"""Planar symmetry groups, domains and discretization grids.

Groups are finite subgroups of O(2): cyclic C_h (h rotations) or dihedral
D_h (h rotations + h reflections).  Grids come in two flavours, a polar
finite-volume grid on disks/annuli and a masked cartesian grid for general
level-set domains.  Both expose the same surface: node coordinates, cell
weights, a symmetric stiffness matrix (discrete Dirichlet form), adjacency
for flood fill and, when the discretization conforms to the group, exact
node permutations for every group element.  Each grid lists its faces as
arrays (node pairs with conductances, plus a Dirichlet conductance per
node) and one assembly turns them into the stiffness, the adjacency and
the boundary-adjacent nodes.  ``grid.to_config()`` is the config ``grid``
section that, with ``grid.domain.to_config()``, rebuilds the grid.
``grid.quotient(G)`` is the grid of G-orbits of those nodes: the same
surface in orbit coordinates, on which the G-invariant fields live with
one unknown per orbit.

All objects here are immutable after construction, apart from the caches
a grid fills on demand (group permutations, orbit grids, the Perron pair
``grid.perron`` and the step factorizations that the flow module stores in
``step_factors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

COINCIDENCE_TOL = 1e-12
# Perron pair: inverse iteration stops once the Collatz-Wielandt bracket
# [min, max] of (K psi)_i / (w_i psi_i) is this narrow (relative), or after
# PERRON_MAX_ITER solves; mu is the bracket's lower end shrunk by
# PERRON_SAFETY, which absorbs the roundoff of K psi.
PERRON_BRACKET_TOL = 1e-9
PERRON_MAX_ITER = 500
PERRON_SAFETY = 1e-6


class ConfigError(ValueError):
    """A config names a key or value the program does not accept."""


class GridSymmetryError(ValueError):
    """The grid does not realize a group element as a node permutation."""


# ---------------------------------------------------------------------------
# symmetry groups
# ---------------------------------------------------------------------------

def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _reflection(axis_angle: float) -> np.ndarray:
    c, s = math.cos(2.0 * axis_angle), math.sin(2.0 * axis_angle)
    return np.array([[c, s], [s, -c]])


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
        if self.order_h < 1:
            raise ValueError("order_h must be >= 1")

    @property
    def size(self) -> int:
        return self.order_h if self.kind == "cyclic" else 2 * self.order_h

    def elements(self) -> list[np.ndarray]:
        """All group elements as 2x2 orthogonal matrices, rotations first."""
        h = self.order_h
        mats = [_rotation(2.0 * math.pi * k / h) for k in range(h)]
        if self.kind == "dihedral":
            mats += [_reflection(self.axis_angle + math.pi * k / h)
                     for k in range(h)]
        return mats


def cyclic(h: int) -> SymmetryGroup:
    return SymmetryGroup("cyclic", h)


def dihedral(h: int, axis_angle: float = 0.0) -> SymmetryGroup:
    return SymmetryGroup("dihedral", h, axis_angle)


def orbit_cardinality(G: SymmetryGroup, x) -> int:
    """Number of distinct images of ``x`` under the group action."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    images = np.array([m @ x for m in G.elements()])
    distinct: list[np.ndarray] = []
    for img in images:
        if all(np.linalg.norm(img - d) > COINCIDENCE_TOL for d in distinct):
            distinct.append(img)
    return len(distinct)


def apply_group_element(G: SymmetryGroup, index: int, obj):
    """Apply group element ``index`` to a point or a grid field.

    Points are mapped by the orthogonal matrix.  Fields are resampled at the
    preimage of every node; on conforming grids this is an exact node
    permutation.
    """
    if index >= G.size:
        raise IndexError(f"group has {G.size} elements, got index {index}")
    mat = G.elements()[index]
    if isinstance(obj, np.ndarray) and obj.shape == (2,):
        return mat @ obj
    if hasattr(obj, "grid") and hasattr(obj, "values"):
        perm = obj.grid.group_permutations(G)[index]
        import dataclasses
        return dataclasses.replace(obj, values=obj.values[perm])
    raise TypeError("expected a 2-point or a grid field")


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Bounded planar domain: disk, annulus or a level-set mask.

    For ``mask`` domains ``mask_fn`` maps an ``(n, 2)`` coordinate array to a
    boolean "strictly inside" array and ``bounding_radius`` bounds the
    domain; ``recipe`` is the config dict of a named mask (``to_config``).
    """

    shape: str  # 'disk' | 'annulus' | 'mask'
    radius: float = 0.0
    inner_radius: float = 0.0
    mask_fn: Callable[[np.ndarray], np.ndarray] | None = None
    bounding_radius: float = 0.0
    recipe: dict | None = field(default=None, compare=False)

    @staticmethod
    def from_config(spec: dict) -> "DomainSpec":
        """Build a domain from its config dict (type disk, annulus or
        squircle); an unknown type, or radii or a squircle power that are
        not numbers with 0 < radius, 0 < power and 0 < a < b, raise
        ConfigError."""
        kind = spec.get("type", "disk")
        if kind in ("disk", "squircle"):
            radius = config_number(spec.get("radius", 1.0))
            if not 0.0 < radius < math.inf:
                raise ConfigError(f"domain {kind!r} needs a number radius "
                                  f"> 0, got {spec['radius']!r}")
            if kind == "disk":
                return DomainSpec.disk(radius)
            power = config_number(spec.get("power", 4.0))
            if not 0.0 < power < math.inf:
                raise ConfigError(f"domain 'squircle' needs a number power "
                                  f"> 0, got {spec['power']!r}")
            return squircle_mask(radius, power)
        if kind == "annulus":
            a, b = config_number(spec["a"]), config_number(spec.get("b", 1.0))
            if not 0.0 < a < b < math.inf:
                raise ConfigError(f"domain 'annulus' needs numbers 0 < a < b, "
                                  f"got a = {spec['a']!r}, b = "
                                  f"{spec.get('b', 1.0)!r}")
            return DomainSpec.annulus(a, b)
        raise ConfigError(f"unknown domain type {kind!r}; "
                          "allowed: disk, annulus, squircle")

    def to_config(self) -> dict:
        """The config dict that ``from_config`` rebuilds this domain from."""
        if self.shape == "disk":
            return {"type": "disk", "radius": self.radius}
        if self.shape == "annulus":
            return {"type": "annulus", "a": self.inner_radius,
                    "b": self.radius}
        if self.recipe is None:
            raise TypeError("mask domain carries no serializable recipe; "
                            "build it from a config dict or a named mask "
                            "factory")
        return dict(self.recipe)

    @staticmethod
    def disk(radius: float) -> "DomainSpec":
        if radius <= 0:
            raise ValueError("disk radius must be positive")
        return DomainSpec("disk", radius=radius, bounding_radius=radius)

    @staticmethod
    def annulus(a_in: float, b_out: float) -> "DomainSpec":
        if not 0 < a_in < b_out:
            raise ValueError("need 0 < a_in < b_out")
        return DomainSpec("annulus", radius=b_out, inner_radius=a_in,
                          bounding_radius=b_out)

    @staticmethod
    def symmetric_mask(fn: Callable[[np.ndarray], np.ndarray],
                       bounding_radius: float) -> "DomainSpec":
        return DomainSpec("mask", mask_fn=fn, bounding_radius=bounding_radius)

    @property
    def contains_origin(self) -> bool:
        if self.shape == "disk":
            return True
        if self.shape == "annulus":
            return False
        return bool(np.all(self.mask_fn(np.zeros((1, 2)))))

    def inside(self, pts: np.ndarray) -> np.ndarray:
        """Boolean array: is each point strictly inside the domain."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.hypot(pts[:, 0], pts[:, 1])
        if self.shape == "disk":
            return r < self.radius
        if self.shape == "annulus":
            return (r > self.inner_radius) & (r < self.radius)
        return np.asarray(self.mask_fn(pts), dtype=bool)


def config_number(value) -> float:
    """A config or command-line value as a float; nan if it is no number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def check_admissible(G: SymmetryGroup, domain: DomainSpec,
                     samples: int = 512, seed: int = 0) -> bool:
    """True iff |Gx| >= 4 at every sampled non-origin point and the domain
    mask is G-invariant at all samples."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if G.order_h < 4:
        return False
    rng = np.random.default_rng(seed)
    R = domain.bounding_radius
    pts = rng.uniform(-R, R, size=(samples, 2))
    inside = domain.inside(pts)
    for mat in G.elements():
        mapped = domain.inside(pts @ mat.T)
        if np.any(mapped != inside):
            return False
    for x in pts[inside]:
        if np.linalg.norm(x) < COINCIDENCE_TOL:
            continue
        if orbit_cardinality(G, x) < 4:
            return False
    return True


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
    for _ in range(PERRON_MAX_ITER):
        psi = lu.solve(weights * psi)
        psi /= np.max(psi)
        ratio = (stiffness @ psi) / (weights * psi)
        lo, hi = float(np.min(ratio)), float(np.max(ratio))
        if hi - lo <= PERRON_BRACKET_TOL * lo:
            break
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

    def __init__(self):
        self._perm_cache: dict = {}
        self._quotients: dict = {}
        #: SuperLU factors of W + dt K per step size dt, filled by flow.step
        self.step_factors: dict = {}

    @property
    def n_nodes(self) -> int:
        return self.xy.shape[0]

    def to_config(self) -> dict:
        """The config ``grid`` section that, with ``domain.to_config()``,
        rebuilds this grid."""
        raise TypeError(f"{type(self).__name__} has no config recipe")

    def laplacian_apply(self, v: np.ndarray) -> np.ndarray:
        """Discrete Dirichlet Laplacian: weights * (-lap v) = stiffness @ v."""
        return -(self.stiffness @ v) / self.weights

    def dirichlet_form(self, v: np.ndarray) -> float:
        """Quadratic form v . K v, the discrete version of ||grad v||^2."""
        return float(v @ (self.stiffness @ v))

    def weighted_norm(self, v: np.ndarray) -> float:
        return math.sqrt(float(self.weights @ (v * v)))

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
        Cached per group; GridSymmetryError if the grid does not realize
        the group.
        """
        key = _group_key(G)
        if key not in self._perm_cache:
            self._perm_cache[key] = self._permutations(G)
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

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Field in this grid's coordinates; the identity on a full grid."""
        return values

    def lift(self, values: np.ndarray) -> np.ndarray:
        """Field on the full grid; the identity on a full grid."""
        return values


class PolarGrid(_GridBase):
    """Cell-centered finite-volume grid in polar coordinates.

    Nodes sit at ``r_j = r_in + (j + 1/2) dr``, ``theta_i = i dtheta``.
    Dirichlet data are imposed at the faces ``r = r_out`` (and ``r = r_in``
    for annuli) at distance ``dr/2`` from the adjacent node.  Rotations by
    multiples of ``dtheta`` and reflections about axes at multiples of
    ``dtheta/2`` act as exact node permutations.
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
                                      dr / (self.r_nodes * dth)]), n_theta)
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
    def origin_ring(self) -> np.ndarray | None:
        """Indices of the innermost ring (proxy for the origin node)."""
        if self.r_in > 0.0:
            return None
        return np.arange(self.n_theta)

    # -- group action ---------------------------------------------------------

    def _theta_steps(self, angle: float) -> int:
        s = angle / self.dtheta
        si = round(s)
        if abs(s - si) > 1e-9:
            raise GridSymmetryError(
                f"angle {angle} is not a multiple of dtheta={self.dtheta}")
        return si % self.n_theta

    def _permutations(self, G: SymmetryGroup) -> list[np.ndarray]:
        if self.n_theta % G.order_h != 0:
            raise GridSymmetryError(
                f"n_theta={self.n_theta} not a multiple of h={G.order_h}")
        n_t = self.n_theta
        i = np.arange(n_t)
        j = np.arange(self.n_r)
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
                s2 = self._theta_steps(2.0 * axis)
                ring_perm = (s2 - i) % n_t
                perms.append((j[:, None] * n_t + ring_perm[None, :]).ravel())
        return perms


class CartesianMaskedGrid(_GridBase):
    """Cell-centered uniform cartesian grid restricted to a domain mask.

    Cells tile ``[-extent, extent]^2``; interior nodes are the cell centers
    strictly inside the domain, Dirichlet zero is imposed at the faces
    toward exterior cells (half-cell distance).  Group actions are exact
    node permutations for h in {1, 2, 4} with reflection axes at multiples
    of pi/4.
    """

    def __init__(self, domain: DomainSpec, n: int, extent: float | None = None):
        if n < 4:
            raise ValueError("need n >= 4")
        super().__init__()
        self.domain = domain
        self.n = n
        self.extent = float(extent if extent is not None
                            else domain.bounding_radius)
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
    def origin_ring(self) -> np.ndarray | None:
        if not self.domain.contains_origin:
            return None
        d2 = np.einsum("ij,ij->i", self.xy, self.xy)
        near = np.flatnonzero(d2 <= 2.01 * (self.h / 2.0) ** 2)
        return near if near.size else np.array([int(np.argmin(d2))])

    def _index_map(self, mat: np.ndarray) -> np.ndarray:
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

    def _permutations(self, G: SymmetryGroup) -> list[np.ndarray]:
        if G.order_h not in (1, 2, 4):
            raise GridSymmetryError(
                "cartesian grids support h in {1, 2, 4} only")
        return [self._index_map(m) for m in G.elements()]


class OrbitGrid(_GridBase):
    """Grid whose nodes are the G-orbits of a parent grid's nodes.

    Group elements act as node permutations that commute with the parent's
    stiffness K and weights W, so the G-invariant fields are exactly the
    fields v = B c constant on orbits, with B the n x m orbit-indicator
    matrix.  In orbit coordinates c the weights are B^T w (orbit weight
    sums) and the stiffness is B^T K B: quadratures, Dirichlet forms,
    Laplacians and linear solves here equal their lifted counterparts on
    the parent grid, with one unknown per orbit.
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
        self.xy = parent.xy[reps]   # one representative node per orbit
        self.weights = np.bincount(self.orbit_id, weights=parent.weights)
        self.stiffness = (basis.T @ parent.stiffness @ basis).tocsr()

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """W-orthogonal orbit average of a parent field, in orbit
        coordinates; lifted back it equals ``parent.symmetrize``."""
        return np.bincount(self.orbit_id, weights=self.parent.weights * values,
                           minlength=self.n_nodes) / self.weights

    def lift(self, values: np.ndarray) -> np.ndarray:
        """The parent field that is constant on orbits."""
        return values[self.orbit_id]


def squircle_mask(radius: float = 1.0, power: float = 4.0) -> DomainSpec:
    """D4-symmetric convex 'squircle' |x|^q + |y|^q < radius^q."""
    def fn(pts):
        return (np.abs(pts[:, 0]) ** power + np.abs(pts[:, 1]) ** power
                < radius ** power)
    return DomainSpec("mask", mask_fn=fn, bounding_radius=radius,
                      recipe={"type": "squircle", "radius": radius,
                              "power": power})
