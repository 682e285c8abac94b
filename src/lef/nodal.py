"""Nodal domain extraction and the geometric predicates used at audit time.

Discrete nodal domains are connected components of {v > tau} and
{v < -tau} under the grid's 4-neighbor-style adjacency; the slab
{|v| <= tau} is the "zero band".  A nodal line touches the boundary only
if a zero-band component reaches the boundary AND separates domains of
opposite sign there -- the thin Dirichlet collar forced by v = 0 on the
boundary must not count.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .energy import EnergyReport, field_energy
from .geometry import SymmetryGroup

DEFAULT_TAU_FACTOR = 1e-3


@dataclass
class NodalDecomposition:
    """Labeled nodal domains of a grid field.

    ``labels[i]`` is 0 for zero-band nodes and k >= 1 for domain k;
    ``signs[k-1]`` is the sign of domain k.  ``zero_labels`` carries the
    analogous component labeling of the zero band (0 outside it).
    """

    grid: object
    values: np.ndarray
    tau: float
    labels: np.ndarray
    signs: np.ndarray
    zero_labels: np.ndarray
    touches_boundary_flags: np.ndarray
    contains_origin_flags: np.ndarray

    @property
    def n_domains(self) -> int:
        return len(self.signs)

    def domain_mask(self, domain_id: int) -> np.ndarray:
        return self.labels == domain_id

    def summary(self) -> dict:
        return {
            "n_domains": self.n_domains,
            "signs": self.signs.tolist(),
            "tau": self.tau,
            "touches_boundary": self.touches_boundary_flags.tolist(),
            "contains_origin": self.contains_origin_flags.tolist(),
        }


def _components(adj: sp.csr_matrix, mask: np.ndarray) -> np.ndarray:
    """Connected-component labels (1-based) of the masked subgraph; 0 off."""
    out = np.zeros(mask.shape[0], dtype=np.int64)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return out
    sub = adj[idx][:, idx]
    n, lab = connected_components(sub, directed=False)
    out[idx] = lab + 1
    return out


def decompose(v, tau: float | None = None) -> NodalDecomposition:
    """Flood-fill nodal decomposition of a grid field.

    tau defaults to 1e-3 * ||v||_inf.  An all-zero field yields zero
    domains (a labeled outcome, not an error).
    """
    grid, values = v.grid, v.values
    sup = float(np.max(np.abs(values)), ) if values.size else 0.0
    if tau is None:
        tau = DEFAULT_TAU_FACTOR * sup
    if tau < 0:
        raise ValueError("tau must be >= 0")
    adj = grid.adjacency()

    pos = _components(adj, values > tau)
    neg = _components(adj, values < -tau)
    n_pos = int(pos.max())
    labels = pos.copy()
    labels[neg > 0] = neg[neg > 0] + n_pos
    n_dom = n_pos + int(neg.max())
    signs = np.array([1] * n_pos + [-1] * (n_dom - n_pos), dtype=np.int64)

    zero_band = np.abs(values) <= tau
    zero_labels = _components(adj, zero_band)

    touches = np.zeros(n_dom, dtype=bool)
    origin = np.zeros(n_dom, dtype=bool)
    decomp = NodalDecomposition(grid, values, float(tau), labels, signs,
                                zero_labels, touches, origin)
    _compute_flags(decomp, adj)
    return decomp


def zero_component_table(decomp: NodalDecomposition, adj: sp.csr_matrix):
    """Per zero-band component: adjacent domain ids, boundary contact."""
    a, b = adj.nonzero()
    labels, zl = decomp.labels, decomp.zero_labels
    n_zero = int(zl.max())
    adjacent_domains: list[set] = [set() for _ in range(n_zero + 1)]
    hits_boundary = np.zeros(n_zero + 1, dtype=bool)
    za = zl[a]
    mask = (za > 0) & (labels[b] > 0)
    for zc, dom in zip(za[mask], labels[b][mask]):
        adjacent_domains[zc].add(int(dom))
    bn = decomp.grid.boundary_adjacent
    zero_nodes = zl > 0
    hit = np.unique(zl[zero_nodes & bn])
    hits_boundary[hit] = True
    # a nodal domain may itself sit against the boundary with no collar
    return adjacent_domains, hits_boundary


def _compute_flags(decomp: NodalDecomposition, adj: sp.csr_matrix):
    adj_doms, hits_bnd = zero_component_table(decomp, adj)
    signs = decomp.signs
    for zc in range(1, len(adj_doms)):
        doms = adj_doms[zc]
        if not doms:
            continue
        s = {int(signs[d - 1]) for d in doms}
        if hits_bnd[zc] and len(s) == 2:
            # genuine nodal line reaching the boundary
            for d in doms:
                decomp.touches_boundary_flags[d - 1] = True
    ring = decomp.grid.origin_ring
    if ring is not None:
        ring_labels = np.unique(decomp.labels[ring])
        if len(ring_labels) == 1 and ring_labels[0] > 0:
            decomp.contains_origin_flags[ring_labels[0] - 1] = True


def touches_boundary(decomp: NodalDecomposition, domain_id: int) -> bool:
    """Does the nodal line bordering this domain reach the boundary?"""
    if not 1 <= domain_id <= decomp.n_domains:
        raise IndexError(f"no domain {domain_id}")
    return bool(decomp.touches_boundary_flags[domain_id - 1])


def nodal_line_touches_boundary(decomp: NodalDecomposition) -> bool:
    """Whole-field predicate: any sign-separating zero component at the
    boundary."""
    return bool(np.any(decomp.touches_boundary_flags))


def contains_origin(decomp: NodalDecomposition) -> int | None:
    """Id of the domain containing the origin, or None if the origin sits
    in the zero band (flagged violation).  Undefined on annular domains."""
    if decomp.grid.origin_ring is None:
        raise ValueError("origin predicate undefined: the grid does not "
                         "cover the origin")
    hits = np.flatnonzero(decomp.contains_origin_flags)
    if hits.size == 1:
        return int(hits[0]) + 1
    return None


def domain_symmetry_check(decomp: NodalDecomposition,
                          G: SymmetryGroup) -> list[dict]:
    """Per-domain G-invariance of the indicator set.

    Returns one record per domain with the worst mismatched-node fraction
    over all group elements.
    """
    perms = decomp.grid.group_permutations(G)
    out = []
    for d in range(1, decomp.n_domains + 1):
        ind = decomp.labels == d
        worst = 0.0
        for perm in perms:
            mism = np.count_nonzero(ind[perm] != ind)
            worst = max(worst, mism / max(1, int(ind.sum())))
        out.append({"domain": d, "is_G_symmetric": worst == 0.0,
                    "mismatch_fraction": worst})
    return out


def per_domain_energy(v, decomp: NodalDecomposition,
                      p: float) -> list[EnergyReport]:
    """field_energy of v restricted to each domain (zero outside).

    The restricted Dirichlet form is the full stiffness applied to the
    masked vector: edges leaving the support see the zero extension, which
    is exactly the Dirichlet form on the restricted support.
    """
    reports = []
    for d in range(1, decomp.n_domains + 1):
        masked = np.where(decomp.domain_mask(d), v.values, 0.0)
        reports.append(field_energy(dataclasses.replace(v, values=masked), p))
    return reports

