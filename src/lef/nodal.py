"""Nodal domain extraction and the geometric facts audited on a candidate.

Discrete nodal domains are connected components of {v > tau} and
{v < -tau} under the grid's 4-neighbor-style adjacency; the slab
{|v| <= tau} is the "zero band".  The nodal line runs through the zero
band and across every edge whose ends lie in domains of opposite sign.
It touches the boundary when a zero-band component that holds a
boundary-adjacent node borders domains of both signs, or when an
opposite-sign edge has a boundary-adjacent end.  The thin one-signed
Dirichlet collar forced by v = 0 on the boundary does not count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .energy import EnergyReport, field_energy

DEFAULT_TAU_FACTOR = 1e-3


@dataclass(frozen=True)
class NodalDecomposition:
    """Labeled nodal domains of a grid field.

    ``labels[i]`` is 0 for zero-band nodes and k >= 1 for domain k;
    ``signs[k-1]`` is the sign of domain k.  ``boundary_contact`` says the
    nodal line touches the boundary; ``origin_domain`` is the domain that
    holds the whole origin ring, None when the ring is split, meets the
    zero band or the grid has none.  Both arrays are read-only.
    """

    tau: float
    labels: np.ndarray
    signs: np.ndarray
    boundary_contact: bool
    origin_domain: int | None

    @property
    def n_domains(self) -> int:
        return len(self.signs)


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
    sup = float(np.max(np.abs(values))) if values.size else 0.0
    if tau is None:
        tau = DEFAULT_TAU_FACTOR * sup
    if tau < 0:
        raise ValueError("tau must be >= 0")
    adj = grid.adjacency()

    # side: +1 / -1 in the positive / negative domains, 0 in the zero band
    side = (values > tau).astype(np.int64) - (values < -tau)
    pos = _components(adj, side > 0)
    neg = _components(adj, side < 0)
    n_pos = int(pos.max())
    labels = np.where(neg > 0, neg + n_pos, pos)
    signs = np.repeat([1, -1], [n_pos, int(neg.max())])

    # per zero-band component k >= 1: holds a boundary-adjacent node,
    # borders a positive domain, borders a negative domain
    a, b = adj.nonzero()  # every edge, in both directions
    boundary = grid.boundary_adjacent
    zero = _components(adj, side == 0)
    facts = np.zeros((3, int(zero.max()) + 1), dtype=bool)
    facts[0, zero[boundary]] = True
    facts[1, zero[a[side[b] > 0]]] = True
    facts[2, zero[a[side[b] < 0]]] = True
    contact = (np.any(facts[:, 1:].all(axis=0))
               or np.any((side[a] * side[b] < 0) & boundary[a]))

    origin, ring = None, grid.origin_ring
    if ring is not None:
        held = np.unique(labels[ring])
        if held.size == 1 and held[0] > 0:
            origin = int(held[0])
    labels.flags.writeable = signs.flags.writeable = False
    return NodalDecomposition(float(tau), labels, signs, bool(contact),
                              origin)


def per_domain_energy(v, decomp: NodalDecomposition,
                      p: float) -> list[EnergyReport]:
    """field_energy of v restricted to each domain (zero outside).

    The restricted Dirichlet form is the full stiffness applied to the
    masked vector: edges leaving the support see the zero extension, which
    is exactly the Dirichlet form on the restricted support.
    """
    reports = []
    for d in range(1, decomp.n_domains + 1):
        masked = np.where(decomp.labels == d, v.values, 0.0)
        reports.append(field_energy(dataclasses.replace(v, values=masked), p))
    return reports
