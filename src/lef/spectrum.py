"""Linearized operator L = -Delta - p|u|^{p-1}, spectra and Morse indices.

The discrete eigenproblem is the generalized symmetric pencil

    (K - W diag(p |u|^{p-1})) phi = lambda W phi

with K the grid stiffness matrix and W the diagonal cell-weight (mass)
matrix.  Restriction to the G-symmetric subspace is the same pencil on the
orbit grid ``grid.quotient(G)``, at the field ``u.on(grid.quotient(G))``:
group elements act as node permutations, so symmetric fields are exactly
the fields constant on node orbits and the restriction is an exact
congruence, not an approximation.

On a general grid every eigenvalue reported here comes from
``spectrum_at_shift``: one symmetric factorization of A - sigma W, whose
negative pivots count the eigenvalues below sigma (Sylvester's law), is
the shift-invert operator of one ``eigsh``, and each eigenpair passes a
residual check.  lambda_1 is taken at a shift below the spectrum, where
the count must be 0; the Morse record factors at sigma_0 =
-NEGATIVE_EIG_REL_TOL |lambda_1| once per space; the half-domain mu is
lambda_1 on the odd subspace of the reflection about the x2-axis, a
congruence like the orbit grid's.

A ring-constant field on a polar grid (``_ring_constant``) takes the
block route instead, for its Morse record and its half-domain mu alike:
the operator commutes with the grid's rotations, so the angular DFT
splits it exactly into one tridiagonal n_r x n_r block T_j per angular
mode j = 0 .. n_theta/2 (``ring_blocks``).  Each block's index below
sigma_0 is a Sturm count, the negative pivots of its LDL^T (Parlett, The
Symmetric Eigenvalue Problem, SIAM 1998), and its eigenvalues come from
LAPACK's tridiagonal eigensolver; a mode counts as often as it occurs in
the space (``mode_multiplicities``).  mu is the lowest eigenvalue of T_1,
from LAPACK's tridiagonal eigenpair routine, so such a field's spectrum
needs no sparse factor and no ARPACK.  Every eigenpair reported on either
route is checked by the same relative residual (``_eigen_residual``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, eigh_tridiagonal, lapack

from .energy import FLOAT_RANGE
from .geometry import GridSymmetryError, PolarGrid, SymmetryGroup, dihedral

NEGATIVE_EIG_REL_TOL = 1e-8  # lambda < -tol * |lambda_1| counts as negative
EIGENPAIR_RESIDUAL_TOL = 1e-8  # relative residual every eigsh pair must meet
# the one rule for "steady": elliptic residual <= STEADY_RESIDUAL_TOL
STEADY_RESIDUAL_TOL = 1e-6
HALF_DOMAIN_AXIS = math.pi / 2.0  # the x2-axis: the half domain is x1 < 0
ODD_EXTENSION_RESIDUAL_TOL = 1e-6  # eigen-residual of the half-domain mode
NEWTON_TOL = 1e-10  # newton_polish stops once the residual is below this


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
    eigenvalues nearest sigma_0 = -NEGATIVE_EIG_REL_TOL |lambda_1|.  On
    the block route ``morse_by_mode`` maps each angular mode j with
    eigenvalues below sigma_0 to their number in its block (the full
    index counts a mode 0 < j < n_theta/2 twice); ``to_dict`` leaves it
    out on the general path."""
    lambda_1: float
    morse_index: int
    eigenvalues: tuple[float, ...]
    symmetric_morse_index: int | None = None
    symmetric_eigenvalues: tuple[float, ...] | None = None
    morse_by_mode: dict[int, int] | None = None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.morse_by_mode is None:
            del out["morse_by_mode"]
        return out


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


def _eigsh(A, k: int, weights: np.ndarray, sigma: float, lu):
    """Shift-invert eigsh of the pencil (A, diag(weights)) at sigma, whose
    inverse operator solves with ``lu``, the factor of A - sigma W.

    ARPACK starts from a fixed pseudo-random vector, so the same problem
    gives bitwise the same eigenpairs in every run.  A symmetric start
    such as all ones would not do: for a G-invariant operator its Krylov
    space stays G-invariant, and the other eigenvectors would enter only
    through roundoff.  Solver failures raise EigenSolveError.
    """
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        return spla.eigsh(A, k=k, M=sp.diags(weights), sigma=sigma,
                          OPinv=spla.LinearOperator(
                              A.shape, matvec=lu.solve, dtype=float), v0=v0)
    except RuntimeError as exc:  # ArpackError, singular shift
        raise EigenSolveError(f"shift-invert eigensolve at sigma = "
                              f"{sigma:.6g} failed: {exc}") from exc


def _spectrum_floor(A, weights: np.ndarray) -> float:
    """Strict lower bound of the pencil's spectrum: 1 below the lowest
    Gershgorin disc of W^{-1} A."""
    diag = A.diagonal()
    radius = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min((diag - radius) / weights)) - 1.0


def _eigen_residual(A, weights: np.ndarray, lam: float,
                    phi: np.ndarray) -> float:
    """|| (A phi - lam W phi) / w || / (||phi|| max(1, |lam|)), the
    relative residual of an eigenpair of the pencil (A, diag(weights))."""
    r = A @ phi - lam * (weights * phi)
    return float(np.linalg.norm(r / weights)
                 / (np.linalg.norm(phi) * max(1.0, abs(lam))))


def spectrum_at_shift(A, weights: np.ndarray, sigma: float, k: int):
    """(inertia below sigma, k eigenvalues nearest sigma in ascending
    order, their eigenvectors), all from one factorization of A - sigma W.

    The factor's negative pivots are the inertia, and the factor is the
    shift-invert operator of the eigsh; every eigenpair is checked by its
    residual against EIGENPAIR_RESIDUAL_TOL.  ARPACK needs k < n - 1, so a
    space of fewer than 3 unknowns raises EigenSolveError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if A.shape[0] < 3:
        raise EigenSolveError(f"a space of {A.shape[0]} unknowns is too "
                              f"small for the shift-invert eigensolve")
    k = min(k, A.shape[0] - 2)
    count, lu = _shifted_factor(A, weights, sigma)
    vals, vecs = _eigsh(A, k, weights, sigma, lu)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for lam, phi in zip(vals, vecs.T):
        rel = _eigen_residual(A, weights, lam, phi)
        if rel > EIGENPAIR_RESIDUAL_TOL:
            raise EigenSolveError(f"eigenpair residual {rel:.2e} exceeds "
                                  f"{EIGENPAIR_RESIDUAL_TOL}")
    return count, vals, vecs


def lowest_eigenpair(A, weights: np.ndarray):
    """(lambda_1, eigenvector) of the pencil (A, diag(weights)): the
    eigenpair nearest a shift below the spectrum, whose factor must have
    no negative pivot."""
    floor = _spectrum_floor(A, weights)
    below, vals, vecs = spectrum_at_shift(A, weights, floor, 1)
    if below:
        raise EigenSolveError(f"{below} eigenvalues below the Gershgorin "
                              f"floor {floor:.6g}")
    return float(vals[0]), vecs[:, 0]


def _relative_residual(grid, v, Kv, p: float) -> float:
    """|| |v|^{p-1} v - K v / w ||_W / ||v||_W, given Kv = K @ v, under the
    float-range rules: 0 for the zero field, inf whenever a norm passes the
    float range or a nonzero v's norm underflows, so that a decayed field
    is never steady.  Callers hold FLOAT_RANGE."""
    nrm = grid.weighted_norm(v)
    if nrm == 0.0:  # v is zero, or v * v underflows
        return math.inf if np.any(v) else 0.0
    out = grid.weighted_norm(np.abs(v) ** (p - 1.0) * v
                             - Kv / grid.weights) / nrm
    return out if math.isfinite(nrm) and math.isfinite(out) else math.inf


def elliptic_residual(u, p: float) -> float:
    """|| Delta_h u + |u|^{p-1} u ||_2 / ||u||_2 in the weighted norm,
    under FLOAT_RANGE (see ``_relative_residual``)."""
    with np.errstate(**FLOAT_RANGE):
        return _relative_residual(u.grid, u.values,
                                  u.grid.stiffness @ u.values, p)


# ---------------------------------------------------------------------------
# angular modes of a ring-constant field on a polar grid
# ---------------------------------------------------------------------------

def _ring_constant(u) -> bool:
    """u is on a polar grid and constant on each of its rings bit for bit
    (``symmetry_defect`` exactly 0 under ``grid.symmetry_group``, whose
    orbits are the rings): the fields whose spectrum the blocks T_j give."""
    grid = u.grid
    if not isinstance(grid, PolarGrid):
        return False
    rings = u.values.reshape(grid.n_r, grid.n_theta)
    return bool(np.all(np.abs(rings - rings[:, :1]) == 0))


def ring_blocks(u, p: float):
    """(diagonals, off-diagonal, weights) of the blocks T_j of L at a
    ring-constant u on a polar grid, one row of ``diagonals`` per angular
    mode j = 0 .. n_theta // 2.

    T_0 is L on the ring grid (the orbits of ``grid.symmetry_group``) at
    ``u.on(rings)``: the ring grid's tridiagonal band of K
    (``rings.stiffness_band``) less W p |u|^{p-1} on its diagonal.  T_j
    adds the angular faces' weight of the mode,
    2 (1 - cos 2 pi j / n_theta) n_theta c_k on ring k, with c_k the
    grid's ``angular_conductance`` dr / (r_k dtheta).
    The eigenvalues of the pencil (T_j, diag(weights)) are those of the
    full pencil on the fields cos(j theta) a_k and sin(j theta) a_k.
    """
    grid = u.grid
    rings = grid.quotient(grid.symmetry_group)
    band = rings.stiffness_band
    pot = p * np.abs(u.on(rings).values) ** (p - 1.0)
    modes = np.arange(grid.n_theta // 2 + 1)
    angular = grid.n_theta * grid.angular_conductance
    shift = 2.0 * (1.0 - np.cos(2.0 * math.pi * modes / grid.n_theta))
    return (band.ab[1] - rings.weights * pot + shift[:, None] * angular,
            band.ab[0, 1:], rings.weights)


def mode_multiplicities(grid, G: SymmetryGroup | None) -> np.ndarray:
    """How often each angular mode j = 0 .. n_theta // 2 of a polar grid
    occurs in the G-invariant fields (all fields when G is None).

    Mode 0 is the ring-constant fields, once.  A mode 0 < j < n_theta/2
    is a pair, cos and sin: C_h keeps both when h divides j, and D_h one
    (each of its reflections fixes one direction of the pair, all the
    same one when h divides j).  Mode n_theta/2 is the alternating field
    (-1)^i, kept when every group element fixes it.
    GridSymmetryError if the grid does not realize G.
    """
    n_t = grid.n_theta
    j = np.arange(n_t // 2 + 1)
    mult = np.where((j == 0) | (2 * j == n_t), 1, 2)
    if G is None:
        return mult
    perms = grid.group_permutations(G)
    mult = np.where(j % G.order_h == 0, mult, 0)
    if G.kind == "dihedral":
        mult = np.minimum(mult, 1)
    if 2 * j[-1] == n_t:
        alternating = (-1) ** np.arange(n_t)
        fixed = all(np.array_equal(alternating[perm[:n_t]], alternating)
                    for perm in perms)
        mult[-1] = 1 if fixed else 0
    return mult


def sturm_counts(diagonals: np.ndarray, off_diagonal: np.ndarray,
                 weights: np.ndarray, sigma: float) -> np.ndarray:
    """Per row of ``diagonals``: the number of eigenvalues below sigma of
    the tridiagonal pencil (T, diag(weights)), T with that diagonal and
    ``off_diagonal``: the negative pivots of the LDL^T of T - sigma W
    (Sylvester's law).  A zero pivot (sigma an eigenvalue of a leading
    block) raises EigenSolveError."""
    squares = off_diagonal * off_diagonal
    count = np.zeros(diagonals.shape[0], dtype=int)
    for k, column in enumerate((diagonals - sigma * weights).T):
        pivot = column if k == 0 else column - squares[k - 1] / pivot
        if not np.all(pivot != 0.0):  # zero or nan
            raise EigenSolveError(f"Sturm count at sigma = {sigma:.6g}: "
                                  f"zero pivot")
        count += pivot < 0.0
    return count


def _standard_form(diagonals, off_diagonal, weights):
    """(diagonals, off-diagonal, W^{-1/2}) of the symmetric tridiagonal
    W^{-1/2} T W^{-1/2} of each block: it has the eigenvalues of the pencil
    (T, diag(weights)), and its eigenvector y is the pencil's W^{-1/2} y."""
    scale = 1.0 / np.sqrt(weights)
    return (diagonals * scale * scale, off_diagonal * scale[:-1] * scale[1:],
            scale)


def _block_eigenvalues(diagonals, off_diagonal, weights) -> np.ndarray:
    """All eigenvalues of each block's pencil, one row per block, from its
    standard form (LAPACK ``dsterf``)."""
    diagonals, off, _ = _standard_form(diagonals, off_diagonal, weights)
    rows = []
    for d in diagonals:
        values, info = lapack.dsterf(d, off)
        if info != 0:
            raise EigenSolveError(f"tridiagonal eigensolve: dsterf info "
                                  f"{info}")
        rows.append(values)
    return np.stack(rows)


def _nearest(values: np.ndarray, mult: np.ndarray, sigma: float,
             k: int) -> tuple[float, ...]:
    """The k eigenvalues nearest sigma, in ascending order, of the space
    in which block row j occurs ``mult[j]`` times; EigenSolveError for a
    space of fewer than 3 unknowns, as ``spectrum_at_shift``."""
    space = np.repeat(values, mult, axis=0).ravel()
    if space.size < 3:
        raise EigenSolveError(f"a space of {space.size} unknowns is too "
                              f"small for the shift-invert eigensolve")
    k = min(k, space.size - 2)
    near = space[np.argsort(np.abs(space - sigma), kind="stable")[:k]]
    return tuple(np.sort(near).tolist())


def _morse_by_mode(u, p: float, G: SymmetryGroup | None,
                   k: int) -> SpectrumReport:
    """``morse_index`` of a ring-constant u on a polar grid, by block."""
    full = mode_multiplicities(u.grid, None)
    sym = None if G is None else mode_multiplicities(u.grid, G)
    blocks = ring_blocks(u, p)
    values = _block_eigenvalues(*blocks)
    lam1 = float(values[0, 0])
    sigma = -NEGATIVE_EIG_REL_TOL * max(abs(lam1), 1e-30)
    counts = sturm_counts(*blocks, sigma)
    by_mode = {int(j): int(c) for j, c in enumerate(counts) if c}
    sym_idx = sym_vals = None
    if sym is not None:
        sym_idx = int(counts @ sym)
        sym_vals = _nearest(values, sym, sigma, k)
    return SpectrumReport(lam1, int(counts @ full),
                          _nearest(values, full, sigma, k), sym_idx,
                          sym_vals, by_mode)


def _morse_by_shift(u, p: float, G: SymmetryGroup | None,
                    k: int) -> SpectrumReport:
    """``morse_index`` on the general path, by ``spectrum_at_shift``.

    For a G-invariant u lambda_1 is found on the orbit grid: L = K -
    pW|u|^{p-1} has nonpositive off-diagonals, so below lambda_1 L - sigma
    W is an M-matrix with nonnegative inverse and lambda_1 has a
    nonnegative eigenvector (Berman & Plemmons, SIAM 1994), connected grid
    or not, whose G-average is a nonzero G-invariant one.
    """
    full = assemble_linearized(u, p), u.grid.weights
    sym = None
    if G is not None:
        u_sym = u.on(u.grid.quotient(G))
        sym = assemble_linearized(u_sym, p), u_sym.grid.weights
    invariant = sym is not None and u.grid.symmetry_defect(u.values, G) == 0
    lam1, _ = lowest_eigenpair(*(sym if invariant else full))
    sigma = -NEGATIVE_EIG_REL_TOL * max(abs(lam1), 1e-30)
    index, vals, _ = spectrum_at_shift(*full, sigma, k)
    sym_idx = sym_vals = None
    if sym is not None:
        sym_idx, sym_vals, _ = spectrum_at_shift(*sym, sigma, k)
        sym_vals = tuple(sym_vals.tolist())
    return SpectrumReport(lam1, index, tuple(vals.tolist()), sym_idx,
                          sym_vals)


def morse_index(u, p: float, G: SymmetryGroup | None = None,
                k: int = 12) -> SpectrumReport:
    """Morse record of a converged steady state, optionally also
    restricted to the G-symmetric subspace.

    The index counts eigenvalues lambda < sigma_0 = -NEGATIVE_EIG_REL_TOL
    |lambda_1| by inertia, so it does not depend on ``k``; ``k`` is only
    the number of eigenvalues nearest sigma_0 reported per space.

    A ring-constant u on a polar grid (``_ring_constant``) takes the
    block route (module docstring), which also reports ``morse_by_mode``;
    any other u the general path.
    """
    res = elliptic_residual(u, p)
    if not res <= STEADY_RESIDUAL_TOL:
        raise NotSteadyError(f"not a converged steady state: elliptic "
                             f"residual {res:.2e} > {STEADY_RESIDUAL_TOL}")
    if _ring_constant(u):
        return _morse_by_mode(u, p, G, k)
    return _morse_by_shift(u, p, G, k)


# ---------------------------------------------------------------------------
# half-domain eigenvalue and odd extension
# ---------------------------------------------------------------------------

def _odd_mode_by_block(u, p: float, perm: np.ndarray):
    """(mu, odd extension) of a ring-constant u, from the block T_1.

    The fields odd under the reflection about the axis are one direction
    of each mode pair 0 < j < n_theta/2, and the alternating mode when it
    is odd.  Each T_j is T_1 plus a nonnegative diagonal that grows with
    j, so mu is the lowest eigenvalue of T_1, from LAPACK's MRRR routine
    ``dstemr`` (on 192 rings it sits nearer a 40-digit reference than
    bisection to its default absolute tolerance).  Its eigenvector a lifts
    to a_k sin(theta_i - HALF_DOMAIN_AXIS), made odd node for node by the
    reflection ``perm``; EigenSolveError if LAPACK fails.
    """
    grid = u.grid
    diagonals, off, weights = ring_blocks(u, p)
    d, e, scale = _standard_form(diagonals[1], off, weights)
    try:
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                                      lapack_driver="stemr")
    except LinAlgError as exc:
        raise EigenSolveError(f"tridiagonal eigenpair of T_1: {exc}") from exc
    theta = np.arange(grid.n_theta) * grid.dtheta
    tilde = np.outer(vecs[:, 0] * scale,
                     np.sin(theta - HALF_DOMAIN_AXIS)).ravel()
    return float(vals[0]), tilde - tilde[perm]


def _odd_mode_by_shift(A, weights: np.ndarray, perm: np.ndarray):
    """(mu, odd extension) on the general path, for the operator A.

    B = [e_i - e_{R i}] over the mirror pairs i < R i of the reflection
    R = ``perm`` spans the odd fields (axis nodes are fixed and carry 0),
    mu is lambda_1 of (B^T A B, B^T W B = 2 W) and B psi is its odd
    extension.
    """
    pairs = np.flatnonzero(np.arange(perm.size) < perm)
    eye = sp.identity(perm.size, format="csc")
    B = eye[:, pairs] - eye[:, perm[pairs]]
    mu, psi = lowest_eigenpair(B.T @ A @ B, 2.0 * weights[pairs])
    return mu, B @ psi


def half_domain_mu(u, p: float):
    """First eigenvalue mu of L on the half domain left of the reflection
    axis, the line at HALF_DOMAIN_AXIS through the origin (the x2-axis,
    half domain {x1 < 0}), with Dirichlet conditions on the axis.

    The half-domain modes are the fields odd under the reflection R, a
    node permutation of the grid, and mu is lambda_1 of L on them.  A
    ring-constant u (``_ring_constant``) takes it from the block T_1, any
    other u from the odd subspace's congruence (``_odd_mode_by_shift``).
    Returns (mu, report) with the odd extension's eigen-residual on the
    full domain; EigenSolveError if it exceeds ODD_EXTENSION_RESIDUAL_TOL,
    and AxisAsymmetryError if u is not symmetric about the axis or the
    grid does not realize R.
    """
    grid, axis_angle = u.grid, HALF_DOMAIN_AXIS
    mirror = dihedral(1, axis_angle)
    try:
        # D_1 about the axis: the identity, then the reflection
        perm = grid.group_permutations(mirror)[1]
    except GridSymmetryError as exc:
        raise AxisAsymmetryError(f"the grid does not realize the reflection "
                                 f"about the axis ({exc})") from exc
    defect = grid.symmetry_defect(u.values, mirror)
    if defect > 1e-8 * u.sup:
        raise AxisAsymmetryError(f"u is not symmetric about the axis "
                                 f"(defect {defect:.2e})")

    A = assemble_linearized(u, p)
    mu, tilde = (_odd_mode_by_block(u, p, perm) if _ring_constant(u)
                 else _odd_mode_by_shift(A, grid.weights, perm))
    odd_residual = _eigen_residual(A, grid.weights, mu, tilde)
    if odd_residual > ODD_EXTENSION_RESIDUAL_TOL:
        raise EigenSolveError(
            f"odd extension eigen-residual {odd_residual:.2e} exceeds "
            f"{ODD_EXTENSION_RESIDUAL_TOL}")
    return mu, {"mu": mu, "odd_extension_residual": odd_residual,
                "axis_angle": axis_angle}


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

    def evaluate(x):
        """(F(x) = K x - W |x|^{p-1} x, residual of x); a zero field has
        residual inf, so it is never a polished solution."""
        kx = K @ x
        res = _relative_residual(grid, x, kx, p) if np.any(x) else math.inf
        return kx - w * np.abs(x) ** (p - 1.0) * x, res

    fv, cur = evaluate(v)
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
            f_cand, r = evaluate(cand)
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
