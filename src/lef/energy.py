"""Energy functional E_p, Nehari projection and the sharp constants.

The gradient norm of a 2D field is always computed through the grid's
stiffness matrix (the same discrete Dirichlet form used by the flow
module's Laplacian), so that discrete energy identities hold up to time
discretization error only.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

FOUR_PI_E = 4.0 * math.pi * math.e          # limit of inf_{N_p} p E_p
UPPER_BOUND_CONST = 4.97 * FOUR_PI_E        # sharp upper-bound constant


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


# ---------------------------------------------------------------------------
# 2D field energies
# ---------------------------------------------------------------------------

def lp1_norm_pow(grid, values: np.ndarray, p: float) -> float:
    """Quadrature of |v|^{p+1}; log-domain accumulation avoids overflow."""
    av = np.abs(values)
    m = float(av.max(initial=0.0))
    if m == 0.0:
        return 0.0
    if (p + 1.0) * math.log(m) < 600.0:
        return float(grid.weights @ av ** (p + 1.0))
    nz = av > 0
    logs = (p + 1.0) * np.log(av[nz]) + np.log(grid.weights[nz])
    return float(np.exp(logsumexp(logs)))


def field_energy(v, p: float) -> EnergyReport:
    """Energy report of a grid field (object with .grid and .values)."""
    grad_sq = v.grid.dirichlet_form(v.values)
    lp1 = lp1_norm_pow(v.grid, v.values, p)
    return EnergyReport.from_norms(grad_sq, lp1, p)


def nehari_project(v, p: float):
    """Scale v onto the Nehari manifold: returns (t_star * v, t_star)."""
    rep = field_energy(v, p)
    if rep.grad_norm_sq == 0.0 or rep.lp1_norm_pow == 0.0:
        raise ValueError("cannot Nehari-project the zero field")
    t_star = (rep.grad_norm_sq / rep.lp1_norm_pow) ** (1.0 / (p - 1.0))
    return dataclasses.replace(v, values=t_star * v.values), t_star


def combined_energy(u1, u2, t1: float, t2: float, p: float,
                    nehari_tol: float = 1e-6) -> EnergyReport:
    """Energy of t1*u1 + t2*u2 for disjointly supported u1, u2.

    When both inputs sit on the Nehari manifold the report is checked
    against the combination bound E(t1 u1 + t2 u2) <= E(u1) + E(u2).
    """
    overlap = (u1.values != 0.0) & (u2.values != 0.0)
    if np.any(overlap):
        raise ValueError("supports of u1 and u2 overlap on "
                         f"{int(overlap.sum())} nodes")
    combo = dataclasses.replace(u1, values=t1 * u1.values + t2 * u2.values)
    rep = field_energy(combo, p)
    r1, r2 = field_energy(u1, p), field_energy(u2, p)
    if r1.nehari_residual < nehari_tol and r2.nehari_residual < nehari_tol:
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
    rep1 = radial.radial_energy(choice.annulus, p)
    rep2 = radial.ball_scaled_energy(p, alpha, choice.ball)
    return UpperBoundReport(p, alpha, rep1.scaled_energy, rep2.scaled_energy,
                            rep1.scaled_energy + rep2.scaled_energy,
                            UPPER_BOUND_CONST)
