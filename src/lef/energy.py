"""Energy functional E_p, Nehari projection and the sharp constants.

The gradient norm of a 2D field is always computed through the grid's
stiffness matrix (the same discrete Dirichlet form used by the flow
module's Laplacian), so that discrete energy identities hold up to time
discretization error only.

Powers and norms of fields are taken directly, under one float-range
policy: a value past the float range is inf, without a numpy warning.
FLOAT_RANGE is that policy as ``np.errstate`` arguments; the flow,
spectrum and radial modules and the squircle mask compute under it too.

brentq is the root finder of the package (minimize_f here, and the event
roots and the alpha search of the radial module).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

FOUR_PI_E = 4.0 * math.pi * math.e          # limit of inf_{N_p} p E_p
UPPER_BOUND_CONST = 4.97 * FOUR_PI_E        # sharp upper-bound constant
# np.errstate(**FLOAT_RANGE): a power or norm past the float range is inf
# (or nan where inf meets inf), with no numpy warning
FLOAT_RANGE = {"over": "ignore", "invalid": "ignore"}
NEHARI_TOL = 1e-6  # combined_energy checks its bound below this residual
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # brentq's least rtol
BRENT_MAXITER = 100  # brentq's iteration limit, scipy's default


@dataclass(frozen=True)
class EnergyReport:
    """Gradient norm, L^{p+1} norm power, E_p and p E_p of one function."""

    grad_norm_sq: float
    lp1_norm_pow: float
    energy: float
    scaled_energy: float
    exponent_p: float

    @staticmethod
    def from_norms(grad_sq: float, lp1_pow: float, p: float) -> "EnergyReport":
        e = 0.5 * grad_sq - lp1_pow / (p + 1.0)
        return EnergyReport(grad_sq, lp1_pow, e, p * e, p)

    @property
    def nehari_residual(self) -> float:
        """|grad^2 - lp1| / grad^2; zero on the Nehari manifold."""
        if self.grad_norm_sq == 0.0:
            return 0.0
        return abs(self.grad_norm_sq - self.lp1_norm_pow) / self.grad_norm_sq

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class AlphaOptimum:
    """Minimizer of f(a) = e^{2a-1}/a + e^{4a} on (0, inf)."""

    alpha_bar: float
    f_value: float


def f_alpha(alpha):
    """Scalar function whose minimum gives the sharp 4.97-type constant."""
    alpha = np.asarray(alpha, dtype=float)
    return np.exp(2.0 * alpha - 1.0) / alpha + np.exp(4.0 * alpha)


def f_alpha_prime(alpha):
    alpha = np.asarray(alpha, dtype=float)
    return (np.exp(2.0 * alpha - 1.0) * (2.0 * alpha - 1.0) / alpha ** 2
            + 4.0 * np.exp(4.0 * alpha))


def minimize_f() -> AlphaOptimum:
    """Minimize f on (0, inf); the minimizer sits in (1e-3, 2)."""
    a = brentq(f_alpha_prime, 1e-3, 2.0, xtol=1e-14, rtol=8.9e-16)
    opt = AlphaOptimum(float(a), float(f_alpha(a)))
    slope = float(f_alpha_prime(opt.alpha_bar))
    if abs(slope) >= 1e-8:
        raise RuntimeError(f"minimize_f: f'(alpha_bar) = {slope:.3e} at "
                           f"alpha_bar = {opt.alpha_bar}, not below 1e-8")
    return opt


def brentq(f, a: float, b: float, xtol: float,
           rtol: float = BRENT_RTOL) -> float:
    """A zero of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Algorithms for Minimization without Derivatives,
    1973, ch. 4) with the steps of scipy.optimize.brentq: the same
    interpolation, bisection and tolerance (xtol + rtol |x|) / 2, so the
    same calls of f and the same root.  The root is always a point at
    which f was called.  ValueError when xtol <= 0, rtol < BRENT_RTOL,
    f(a) and f(b) have the same sign, or f returns nan; RuntimeError when
    BRENT_MAXITER iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {BRENT_RTOL:g})")

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (math.copysign(1.0, fpre)
                                            != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # an underflowed divisor: bisect,
                stry = math.inf        # as C's inf or nan step does
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} "
                       "iterations.")


# ---------------------------------------------------------------------------
# 2D field energies
# ---------------------------------------------------------------------------

def lp1_norm_pow(grid, values: np.ndarray, p: float) -> float:
    """Quadrature of |v|^{p+1}; inf past the float range."""
    with np.errstate(**FLOAT_RANGE):
        return float(grid.weights @ np.abs(values) ** (p + 1.0))


def dirichlet_form(grid, values: np.ndarray) -> float:
    """grid.dirichlet_form(values), or inf once it passes the float range
    (the form is nonnegative: a nan there is inf meeting inf)."""
    with np.errstate(**FLOAT_RANGE):
        form = grid.dirichlet_form(values)
    return form if math.isfinite(form) else math.inf


def field_energy(v, p: float) -> EnergyReport:
    """Energy report of a grid field (object with .grid and .values); a
    norm past the float range is inf, and E_p then inf, -inf or nan."""
    grad_sq = dirichlet_form(v.grid, v.values)
    lp1 = lp1_norm_pow(v.grid, v.values, p)
    return EnergyReport.from_norms(grad_sq, lp1, p)


def nehari_project(v, p: float):
    """Scale v onto the Nehari manifold: returns (t_star * v, t_star)."""
    rep = field_energy(v, p)
    if rep.grad_norm_sq == 0.0 or rep.lp1_norm_pow == 0.0:
        raise ValueError("cannot Nehari-project the zero field")
    t_star = (rep.grad_norm_sq / rep.lp1_norm_pow) ** (1.0 / (p - 1.0))
    return dataclasses.replace(v, values=t_star * v.values), t_star


def combined_energy(u1, u2, t1: float, t2: float, p: float) -> EnergyReport:
    """Energy of t1*u1 + t2*u2 for disjointly supported u1, u2.

    When both inputs sit on the Nehari manifold (residual below
    NEHARI_TOL) the report is checked against the combination bound
    E(t1 u1 + t2 u2) <= E(u1) + E(u2).
    """
    overlap = (u1.values != 0.0) & (u2.values != 0.0)
    if np.any(overlap):
        raise ValueError("supports of u1 and u2 overlap on "
                         f"{int(overlap.sum())} nodes")
    combo = dataclasses.replace(u1, values=t1 * u1.values + t2 * u2.values)
    rep = field_energy(combo, p)
    r1, r2 = field_energy(u1, p), field_energy(u2, p)
    if r1.nehari_residual < NEHARI_TOL and r2.nehari_residual < NEHARI_TOL:
        bound = r1.energy + r2.energy
        # supports may touch across one cell face; the stiffness matrix then
        # couples them and the combination picks up t1*t2*(u1, K u2), which
        # the continuum bound does not see
        cross = t1 * t2 * float(u1.values @ (u1.grid.stiffness @ u2.values))
        slack = 1e-8 * max(1.0, abs(bound)) + max(cross, 0.0)
        if rep.energy > bound + slack:
            raise ValueError(
                f"combination bound violated: {rep.energy} > {bound}")
    return rep


# ---------------------------------------------------------------------------
# sharp-constant report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpperBoundReport:
    p: float
    alpha: float
    p_energy_annulus: float
    p_energy_ball: float
    total: float
    bound: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def upper_bound_report(choice) -> UpperBoundReport:
    """p E_p of the annulus and scaled-ball solutions vs the sharp bound.

    ``choice`` is a ``radial.AlphaChoice``: the profiles at one alpha, as
    ``radial.profiles_at`` and ``radial.optimal_alpha`` return them.
    """
    from . import radial  # deferred: radial imports EnergyReport from here

    p, alpha = choice.annulus.p, choice.alpha
    rep1 = radial.radial_energy(choice.annulus)
    rep2 = radial._rescaled_energy(choice.ball_energy, p, alpha)
    return UpperBoundReport(p, alpha, rep1.scaled_energy, rep2.scaled_energy,
                            rep1.scaled_energy + rep2.scaled_energy,
                            UPPER_BOUND_CONST)
