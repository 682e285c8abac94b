"""Linearized operator L = -Delta - p|u|^{p-1}, spectra and Morse indices.

The discrete eigenproblem is the generalized symmetric pencil

    (K - W diag(p |u|^{p-1})) phi = lambda W phi

with K the grid stiffness matrix and W the diagonal cell-weight (mass)
matrix.  Restriction to the G-symmetric subspace is the same pencil on the
orbit grid ``grid.quotient(G)``: group elements act as node permutations,
so symmetric fields are exactly the fields constant on node orbits and
the restriction is an exact congruence, not an approximation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import SymmetryGroup

NEGATIVE_EIG_REL_TOL = 1e-8  # lambda < -tol * |lambda_1| counts as negative


class EigenSolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple[float, ...]
    morse_index: int
    symmetric_morse_index: int | None = None
    symmetric_eigenvalues: tuple[float, ...] | None = None
    half_domain_mu: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def assemble_linearized(u, p: float) -> sp.csr_matrix:
    """K - W diag(p |u|^{p-1}); symmetric, Dirichlet rows eliminated."""
    grid = u.grid
    pot = p * np.abs(u.values) ** (p - 1.0)
    return (grid.stiffness - sp.diags(grid.weights * pot)).tocsr()


def _mass(grid) -> sp.dia_matrix:
    return sp.diags(grid.weights)


def _smallest_eigs(A: sp.csr_matrix, M, k: int, sigma_floor: float):
    """k algebraically smallest eigenpairs of A x = lam M x."""
    n = A.shape[0]
    k = min(k, n - 2)
    try:
        vals, vecs = spla.eigsh(A, k=k, M=M, sigma=sigma_floor, which="LM")
    except Exception as exc:  # pragma: no cover - solver failure path
        raise EigenSolveError(f"shift-invert eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _sigma_floor(u_values: np.ndarray, p: float) -> float:
    """Strict lower bound for the spectrum: -p max|u|^{p-1} - 1."""
    m = float(np.max(np.abs(u_values))) if u_values.size else 0.0
    return -(p * m ** (p - 1.0) if m > 0 else 0.0) - 1.0


def lowest_eigenpairs(operator: sp.csr_matrix, grid, k: int,
                      sigma_floor: float | None = None,
                      residual_tol: float = 1e-8):
    """k smallest eigenvalues (and vectors) with residual verification."""
    if k < 1:
        raise ValueError("k must be >= 1")
    M = _mass(grid)
    if sigma_floor is None:
        # Gershgorin-type floor from the diagonal potential
        d = operator.diagonal() / grid.weights
        sigma_floor = min(float(d.min()), 0.0) - 1.0
    vals, vecs = _smallest_eigs(operator, M, k, sigma_floor)
    for lam, phi in zip(vals, vecs.T):
        r = operator @ phi - lam * (grid.weights * phi)
        rel = np.linalg.norm(r / grid.weights) / (
            np.linalg.norm(phi) * max(1.0, abs(lam)))
        if rel > residual_tol:
            raise EigenSolveError(
                f"eigenpair residual {rel:.2e} exceeds {residual_tol}")
    return vals, vecs


def _count_negative(vals: np.ndarray) -> int:
    scale = abs(vals[0]) if len(vals) else 1.0
    return int(np.count_nonzero(vals < -NEGATIVE_EIG_REL_TOL * max(scale, 1e-30)))


def elliptic_residual(u, p: float) -> float:
    """|| Delta_h u + |u|^{p-1} u ||_2 / ||u||_2 in the weighted norm."""
    grid = u.grid
    nrm = grid.weighted_norm(u.values)
    if nrm == 0.0:
        return 0.0
    res = grid.laplacian_apply(u.values) + np.abs(u.values) ** (p - 1.0) * u.values
    return grid.weighted_norm(res) / nrm


def morse_index(u, p: float, G: SymmetryGroup | None = None, k: int = 12,
                residual_check: float = 1e-6) -> SpectrumReport:
    """Morse index of a converged steady state, optionally also restricted
    to the G-symmetric subspace."""
    res = elliptic_residual(u, p)
    if res > residual_check:
        raise ValueError(f"not a converged steady state: elliptic residual "
                         f"{res:.2e} > {residual_check}")
    grid = u.grid
    A = assemble_linearized(u, p)
    floor = _sigma_floor(u.values, p)
    vals, _ = _smallest_eigs(A, _mass(grid), k, floor)
    while _count_negative(vals) == len(vals) and len(vals) < grid.n_nodes - 2:
        k = min(2 * k, grid.n_nodes - 2)
        vals, _ = _smallest_eigs(A, _mass(grid), k, floor)

    sym_vals = sym_idx = None
    if G is not None:
        orbits = grid.quotient(G)
        u_sym = dataclasses.replace(u, grid=orbits,
                                    values=orbits.restrict(u.values))
        sym_vals, _ = _smallest_eigs(assemble_linearized(u_sym, p),
                                     _mass(orbits), k, floor)
        sym_idx = _count_negative(sym_vals)

    return SpectrumReport(tuple(float(x) for x in vals),
                          _count_negative(vals), sym_idx,
                          None if sym_vals is None else
                          tuple(float(x) for x in sym_vals))


# ---------------------------------------------------------------------------
# half-domain eigenvalue and odd extension
# ---------------------------------------------------------------------------

def _reflection_permutation(grid, axis_angle: float) -> np.ndarray:
    refl = SymmetryGroup("dihedral", 1, axis_angle)
    return grid.group_permutations(refl)[1]  # identity, then the reflection


def half_domain_mu(u, p: float, axis_angle: float = math.pi / 2.0,
                   residual_tol: float = 1e-6):
    """First eigenvalue of L on the half domain left of the reflection axis.

    The axis is the line at ``axis_angle`` through the origin (default: the
    x2-axis, half domain {x1 < 0}).  Dirichlet conditions hold on the whole
    half-domain boundary including the axis.  Returns (mu, report) where
    report contains the odd-extension eigen-residual on the full domain.

    Requires u symmetric about the axis.
    """
    grid = u.grid
    perm = _reflection_permutation(grid, axis_angle)
    sup = float(np.max(np.abs(u.values))) if u.values.size else 0.0
    defect = float(np.max(np.abs(u.values[perm] - u.values)))
    if sup > 0 and defect > 1e-8 * sup:
        raise ValueError(f"u is not symmetric about the axis "
                         f"(defect {defect:.2e})")

    # signed distance of each node to the axis; half domain = negative side
    normal = np.array([math.cos(axis_angle + math.pi / 2.0),
                       math.sin(axis_angle + math.pi / 2.0)])
    s = grid.xy @ normal
    tol = 1e-9 * max(1.0, float(np.max(np.abs(s))))
    half = s < -tol

    A = assemble_linearized(u, p)
    idx = np.flatnonzero(half)
    A_half = A[idx][:, idx]
    # odd extension forces the mirror of a node to carry -psi; when the
    # mirror is a direct stencil neighbor (cell-centered grid, axis between
    # columns) that coupling folds into the diagonal
    cross = np.asarray(A[idx, perm[idx]]).ravel()
    cross[perm[idx] == idx] = 0.0
    if np.any(cross):
        A_half = A_half - sp.diags(cross)
    M_half = sp.diags(grid.weights[idx])
    floor = _sigma_floor(u.values, p)
    vals, vecs = spla.eigsh(A_half, k=1, M=M_half, sigma=floor, which="LM")
    mu = float(vals[0])
    psi = vecs[:, 0]

    # odd extension across the axis
    tilde = np.zeros(grid.n_nodes)
    tilde[idx] = psi
    tilde = tilde - tilde[perm]
    tilde[np.abs(s) <= tol] = 0.0

    r = A @ tilde - mu * (grid.weights * tilde)
    denom = (np.linalg.norm(tilde) * max(1.0, abs(mu)))
    odd_residual = float(np.linalg.norm(r / grid.weights) / denom)
    if odd_residual > residual_tol:
        raise EigenSolveError(
            f"odd extension eigen-residual {odd_residual:.2e} exceeds "
            f"{residual_tol}")
    return mu, {"mu": mu, "odd_extension_residual": odd_residual,
                "axis_angle": axis_angle}


def convex_in_direction(domain, direction_angle: float,
                        n_chords: int = 64, n_pts: int = 256) -> bool:
    """Sample chords along ``direction_angle``: inside-points form one run."""
    d = np.array([math.cos(direction_angle), math.sin(direction_angle)])
    n = np.array([-d[1], d[0]])
    R = domain.bounding_radius
    for off in np.linspace(-R, R, n_chords):
        ts = np.linspace(-R, R, n_pts)
        pts = off * n[None, :] + ts[:, None] * d[None, :]
        ins = domain.inside(pts)
        runs = np.count_nonzero(np.diff(ins.astype(int)) == 1)
        if runs > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Newton polishing of steady states
# ---------------------------------------------------------------------------

def newton_polish(u, p: float, tol: float = 1e-10, max_iter: int = 40):
    """Newton iteration on K v - W |v|^{p-1} v = 0 with damping.

    Returns (polished field, residual).  The iteration stops early and
    returns the best iterate if it stalls; callers should check the
    residual.
    """
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
            cand = v - step * dv
            if res_of(cand) < cur:
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
    return dataclasses.replace(u, values=best_v), best_res
