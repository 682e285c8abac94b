"""Linearized operator L = -Delta - p|u|^{p-1}, spectra and Morse indices.

The discrete eigenproblem is the generalized symmetric pencil

    (K - W diag(p |u|^{p-1})) phi = lambda W phi

with K the grid stiffness matrix and W the diagonal cell-weight (mass)
matrix.  Restriction to the G-symmetric subspace is the same pencil on the
orbit grid ``grid.quotient(G)``, at the field ``u.on(grid.quotient(G))``:
group elements act as node permutations, so symmetric fields are exactly
the fields constant on node orbits and the restriction is an exact
congruence, not an approximation.

Morse indices are inertia counts (Sylvester's law): W is positive
diagonal, so the number of eigenvalues below a shift sigma equals the
number of negative pivots of a symmetric factorization of A - sigma W.
A Morse record fixes sigma_0 = -NEGATIVE_EIG_REL_TOL |lambda_1| and
factors A - sigma_0 W once per space.  That one factor gives the index by
its pivots and is the shift-invert operator of the ``eigsh`` that finds
the eigenvalues nearest sigma_0, the ones nondegeneracy turns on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import FLOAT_RANGE
from .geometry import SymmetryGroup, dihedral

NEGATIVE_EIG_REL_TOL = 1e-8  # lambda < -tol * |lambda_1| counts as negative
EIGENPAIR_RESIDUAL_TOL = 1e-8  # relative residual every eigsh pair must meet
STEADY_RESIDUAL_TOL = 1e-6  # elliptic residual of a field with a Morse index
HALF_DOMAIN_AXIS = math.pi / 2.0  # the x2-axis: the half domain is x1 < 0
ODD_EXTENSION_RESIDUAL_TOL = 1e-6  # eigen-residual of the half-domain mode
NEWTON_TOL = 1e-10  # newton_polish stops once the residual is below this
CONVEXITY_CHORDS, CONVEXITY_POINTS = 64, 256  # chords, points per chord


class EigenSolveError(RuntimeError):
    """An eigensolve or inertia count failed or could not be verified."""


class NotSteadyError(ValueError):
    """The field is not a converged steady state, so it has no Morse index."""


class AxisAsymmetryError(ValueError):
    """The field is not symmetric about the reflection axis, so it has no
    half-domain eigenvalue."""


@dataclass(frozen=True)
class SpectrumReport:
    """lambda_1 of L on u's grid, and per space (the grid, then the
    G-symmetric orbit grid if a group is given) the Morse index and the
    eigenvalues nearest sigma_0 = -NEGATIVE_EIG_REL_TOL |lambda_1|."""
    lambda_1: float
    morse_index: int
    eigenvalues: tuple[float, ...]
    symmetric_morse_index: int | None = None
    symmetric_eigenvalues: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def assemble_linearized(u, p: float) -> sp.csr_matrix:
    """K - W diag(p |u|^{p-1}); symmetric, Dirichlet rows eliminated."""
    grid = u.grid
    pot = p * np.abs(u.values) ** (p - 1.0)
    return (grid.stiffness - sp.diags(grid.weights * pot)).tocsr()


# Bound at import: the inertia count reads the factor's permutations and
# pivots, which only SuperLU's own factor object exposes.
_superlu = spla.splu


def _shifted_factor(A: sp.spmatrix, weights: np.ndarray, sigma: float):
    """(number of eigenvalues below sigma, SuperLU factor of A - sigma W).

    SuperLU in symmetric mode with a zero pivot threshold keeps every pivot
    on the diagonal, so the factor is P (A - sigma W) P^T = L D L^T with D
    the diagonal of its U factor; a factorization that pivots off the
    diagonal or meets a zero pivot (sigma is an eigenvalue) raises
    EigenSolveError.
    """
    S = (A - sigma * sp.diags(weights)).tocsc()
    try:
        lu = _superlu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise EigenSolveError(f"inertia count at sigma = {sigma:.6g}: zero "
                              f"pivot ({exc})") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigenSolveError(f"inertia count at sigma = {sigma:.6g}: SuperLU "
                              f"pivoted off the diagonal (perm_r != perm_c)")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0)), lu


def _eigsh(A, k: int, weights: np.ndarray, sigma: float, OPinv=None):
    """Shift-invert eigsh of the pencil (A, diag(weights)) at sigma.

    ARPACK starts from a fixed pseudo-random vector, so the same problem
    gives bitwise the same eigenpairs in every run.  A symmetric start
    such as all ones would not do: for a G-invariant operator its Krylov
    space stays G-invariant, and the other eigenvectors would enter only
    through roundoff.  Solver failures raise EigenSolveError.
    """
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        return spla.eigsh(A, k=k, M=sp.diags(weights), sigma=sigma,
                          OPinv=OPinv, v0=v0)
    except RuntimeError as exc:  # ArpackError, singular shift
        raise EigenSolveError(f"shift-invert eigensolve at sigma = "
                              f"{sigma:.6g} failed: {exc}") from exc


def _spectrum_floor(A, weights: np.ndarray) -> float:
    """Strict lower bound of the pencil's spectrum: 1 below the lowest
    Gershgorin disc of W^{-1} A."""
    diag = A.diagonal()
    radius = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min((diag - radius) / weights)) - 1.0


def lowest_eigenpair(A, weights: np.ndarray):
    """(lambda_1, eigenvector) of the pencil (A, diag(weights)), from
    shift-invert eigsh below the spectrum."""
    vals, vecs = _eigsh(A, 1, weights, _spectrum_floor(A, weights))
    return float(vals[0]), vecs[:, 0]


def spectrum_at_shift(A, weights: np.ndarray, sigma: float, k: int):
    """(inertia below sigma, k eigenvalues nearest sigma in ascending
    order, their eigenvectors), all from one factorization of A - sigma W.

    The factor's negative pivots are the inertia, and the factor is the
    shift-invert operator of the eigsh; every eigenpair is checked by its
    residual against EIGENPAIR_RESIDUAL_TOL.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, A.shape[0] - 2)
    count, lu = _shifted_factor(A, weights, sigma)
    vals, vecs = _eigsh(A, k, weights, sigma, spla.LinearOperator(
        A.shape, matvec=lu.solve, dtype=float))
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for lam, phi in zip(vals, vecs.T):
        r = A @ phi - lam * (weights * phi)
        rel = np.linalg.norm(r / weights) / (
            np.linalg.norm(phi) * max(1.0, abs(lam)))
        if rel > EIGENPAIR_RESIDUAL_TOL:
            raise EigenSolveError(f"eigenpair residual {rel:.2e} exceeds "
                                  f"{EIGENPAIR_RESIDUAL_TOL}")
    return count, vals, vecs


def elliptic_residual(u, p: float) -> float:
    """|| Delta_h u + |u|^{p-1} u ||_2 / ||u||_2 in the weighted norm,
    under FLOAT_RANGE: inf whenever a norm passes the float range."""
    grid = u.grid
    with np.errstate(**FLOAT_RANGE):
        nrm = grid.weighted_norm(u.values)
        if nrm == 0.0:  # u is zero, or u * u underflows
            return 0.0
        res = (grid.laplacian_apply(u.values)
               + np.abs(u.values) ** (p - 1.0) * u.values)
        out = grid.weighted_norm(res) / nrm
    return out if math.isfinite(nrm) and math.isfinite(out) else math.inf


def _index_and_eigenvalues(A, weights: np.ndarray, sigma: float, k: int):
    """(inertia below sigma, k eigenvalues nearest sigma) of one space."""
    index, vals, _ = spectrum_at_shift(A, weights, sigma, k)
    return index, tuple(float(x) for x in vals)


def morse_index(u, p: float, G: SymmetryGroup | None = None,
                k: int = 12) -> SpectrumReport:
    """Morse record of a converged steady state, optionally also
    restricted to the G-symmetric subspace.

    The index counts eigenvalues lambda < sigma_0 = -NEGATIVE_EIG_REL_TOL
    |lambda_1| by inertia, so it does not depend on ``k``; ``k`` is only
    the number of eigenvalues nearest sigma_0 reported per space.

    For a G-invariant u lambda_1 is found on the orbit grid: L = K -
    pW|u|^{p-1} has nonpositive off-diagonals, so below lambda_1 L - sigma
    W is an M-matrix with nonnegative inverse and lambda_1 has a
    nonnegative eigenvector (Berman & Plemmons, SIAM 1994), connected grid
    or not, whose G-average is a nonzero G-invariant one.
    """
    res = elliptic_residual(u, p)
    if res > STEADY_RESIDUAL_TOL:
        raise NotSteadyError(f"not a converged steady state: elliptic "
                             f"residual {res:.2e} > {STEADY_RESIDUAL_TOL}")
    full = assemble_linearized(u, p), u.grid.weights
    sym = None
    if G is not None:
        u_sym = u.on(u.grid.quotient(G))
        sym = assemble_linearized(u_sym, p), u_sym.grid.weights
    invariant = sym is not None and u.grid.symmetry_defect(u.values, G) == 0
    lam1, _ = lowest_eigenpair(*(sym if invariant else full))
    sigma = -NEGATIVE_EIG_REL_TOL * max(abs(lam1), 1e-30)
    index, vals = _index_and_eigenvalues(*full, sigma, k)
    sym_idx, sym_vals = ((None, None) if sym is None
                         else _index_and_eigenvalues(*sym, sigma, k))
    return SpectrumReport(lam1, index, vals, sym_idx, sym_vals)


# ---------------------------------------------------------------------------
# half-domain eigenvalue and odd extension
# ---------------------------------------------------------------------------

def half_domain_mu(u, p: float):
    """First eigenvalue of L on the half domain left of the reflection axis.

    The axis is the line at HALF_DOMAIN_AXIS through the origin (the
    x2-axis, half domain {x1 < 0}).  Dirichlet conditions hold on the whole
    half-domain boundary including the axis.  Returns (mu, report) where
    report contains the odd-extension eigen-residual on the full domain;
    EigenSolveError if it exceeds ODD_EXTENSION_RESIDUAL_TOL.

    Raises AxisAsymmetryError when u is not symmetric about the axis.
    """
    grid, axis_angle = u.grid, HALF_DOMAIN_AXIS
    # D_1 about the axis: the identity, then the reflection
    perm = grid.group_permutations(dihedral(1, axis_angle))[1]
    sup = float(np.max(np.abs(u.values))) if u.values.size else 0.0
    defect = float(np.max(np.abs(u.values[perm] - u.values)))
    if sup > 0 and defect > 1e-8 * sup:
        raise AxisAsymmetryError(f"u is not symmetric about the axis "
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
    mu, psi = lowest_eigenpair(A_half, grid.weights[idx])

    # odd extension across the axis
    tilde = np.zeros(grid.n_nodes)
    tilde[idx] = psi
    tilde = tilde - tilde[perm]
    tilde[np.abs(s) <= tol] = 0.0

    r = A @ tilde - mu * (grid.weights * tilde)
    denom = (np.linalg.norm(tilde) * max(1.0, abs(mu)))
    odd_residual = float(np.linalg.norm(r / grid.weights) / denom)
    if odd_residual > ODD_EXTENSION_RESIDUAL_TOL:
        raise EigenSolveError(
            f"odd extension eigen-residual {odd_residual:.2e} exceeds "
            f"{ODD_EXTENSION_RESIDUAL_TOL}")
    return mu, {"mu": mu, "odd_extension_residual": odd_residual,
                "axis_angle": axis_angle}


def convex_in_direction(domain, direction_angle: float) -> bool:
    """Sample CONVEXITY_CHORDS chords along ``direction_angle`` at
    CONVEXITY_POINTS points each: inside-points form one run."""
    d = np.array([math.cos(direction_angle), math.sin(direction_angle)])
    n = np.array([-d[1], d[0]])
    R = domain.bounding_radius
    for off in np.linspace(-R, R, CONVEXITY_CHORDS):
        ts = np.linspace(-R, R, CONVEXITY_POINTS)
        pts = off * n[None, :] + ts[:, None] * d[None, :]
        ins = domain.inside(pts)
        runs = np.count_nonzero(np.diff(ins.astype(int)) == 1)
        if runs > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Newton polishing of steady states
# ---------------------------------------------------------------------------

@np.errstate(**FLOAT_RANGE)
def newton_polish(u, p: float, max_iter: int = 40):
    """Newton iteration on K v - W |v|^{p-1} v = 0 with damping, under
    FLOAT_RANGE, until the residual is below NEWTON_TOL or after
    ``max_iter`` iterations.

    Returns (polished field, residual).  The iteration stops early and
    returns the best iterate if it stalls; callers should check the
    residual, which is inf for a field past the float range.

    Each Jacobian K - W diag(p |v|^{p-1}) is written into the grid's cached
    copy of K's pattern, whose columns are already in the order SuperLU
    picks for K (``grid.ordered_stiffness``), and factored in that natural
    order: no pattern is rebuilt and no ordering rerun per iteration.
    """
    grid = u.grid
    K, w = grid.stiffness, grid.weights
    ordered = grid.ordered_stiffness
    order, diagonal = ordered.order, ordered.diagonal
    J = ordered.matrix.copy()
    k_diagonal = J.data[diagonal]
    w_ordered = w[order]
    v = u.values.copy()

    def F(x):
        return K @ x - w * np.abs(x) ** (p - 1.0) * x

    def res_of(x, fx):
        nrm = grid.weighted_norm(x)
        if not 0.0 < nrm < math.inf:
            return math.inf
        r = grid.weighted_norm(fx / w) / nrm
        return r if math.isfinite(r) else math.inf

    fv = F(v)
    cur = res_of(v, fv)
    best_v, best_res = v.copy(), cur
    for _ in range(max_iter):
        J.data[diagonal] = k_diagonal - (w_ordered * p
                                         * np.abs(v[order]) ** (p - 1.0))
        dv = np.empty_like(v)
        try:
            dv[order] = spla.splu(J, permc_spec="NATURAL").solve(fv)
        except RuntimeError:
            break
        step = 1.0
        while step > 1e-6:
            cand = v - step * dv
            f_cand = F(cand)
            r = res_of(cand, f_cand)
            if r < cur:
                break
            step *= 0.5
        else:
            break
        v, fv, cur = cand, f_cand, r
        if r < best_res:
            best_v, best_res = v.copy(), r
        if r < NEWTON_TOL:
            break
    return dataclasses.replace(u, values=best_v), best_res
