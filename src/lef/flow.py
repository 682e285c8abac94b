"""Semilinear heat flow: IMEX stepping, classification, threshold search.

One step solves (W + dt K) v_{n+1} = W (v_n + dt |v_n|^{p-1} v_n): implicit
backward-Euler diffusion, explicit reaction.  Each grid owns its
factorizations of W + dt K per step size: LAPACK's tridiagonal LDL^T
(``dpttrf``/``dpttrs``) when K is tridiagonal in node order
(``grid.stiffness_bands``, the ring grid of a polar grid), sparse LU
otherwise.  The step is Eyre's convex splitting of the energy, so
E(v_{n+1}) <= E(v_n) - dt ||(v_{n+1} - v_n)/dt||_W^2 at any dt:
no step is rejected, an energy rise beyond roundoff is counted as a defect,
and ``c_stab`` bounds dt where |v| is large for accuracy, not stability.

The flow runs on the grid of its field.  On the orbit grid
``grid.quotient(G)`` (a field goes there by ``field.on(orbits)`` and comes
back by ``field.lifted()``) it is exactly the G-invariant flow, with one
unknown per orbit instead of per node: group elements are node
permutations commuting with K and W, and the reaction acts node by node.

Trajectories are classified as decay to zero, blow-up, convergence to a
steady state (elliptic residual <= spectrum.STEADY_RESIDUAL_TOL) or
time-out.  Negative energy is used as an early blow-up certificate: the
energy decreases along the flow and no globally decaying trajectory can
have E_p < 0.  Threshold probes also stop at a decay certificate (a
discrete comparison principle): given the grid's Perron pair
K psi >= mu W psi, psi > 0, max psi = 1, once M = max |v| / psi has
M^{p-1} < mu every later step shrinks M by the factor
(1 + dt M^{p-1}) / (1 + dt mu) < 1, as (W + dt K)^{-1} W >= 0 (an M-matrix
inverse) and v -> v + dt |v|^{p-1} v is odd and increasing.

Threshold initial data on the boundary of the attraction domain of zero
are located by bisection along rays of initial data, with an outer fan and
one bisection over the mixing angle in the 2D space spanned by two
disjointly supported profiles.  A candidate counts as converged at
spectrum.STEADY_RESIDUAL_TOL and as sign-changing past nodal's zero band.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import energy as energy_mod
from . import nodal as nodal_mod
from . import spectrum as spectrum_mod


class Classification(str, Enum):
    DECAY = "DecayToZero"
    BLOWUP = "Blowup"
    STEADY = "ConvergedSteady"
    MAXTIME = "MaxTimeReached"


@dataclass
class ScalarField:
    """Grid field with implicit zero Dirichlet boundary values."""

    grid: object
    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def __neg__(self) -> "ScalarField":
        return dataclasses.replace(self, values=-self.values)

    def scaled(self, lam: float) -> "ScalarField":
        return dataclasses.replace(self, values=lam * self.values)

    def on(self, grid) -> "ScalarField":
        """This field on ``grid``: itself on its own grid, its W-orthogonal
        orbit average (lifted: ``symmetrize``) on an orbit grid of it."""
        if grid is self.grid:
            return self
        if getattr(grid, "parent", None) is not self.grid:
            raise ValueError("a field goes only onto its own grid or an "
                             "orbit grid of it")
        return ScalarField(grid, np.bincount(
            grid.orbit_id, weights=self.grid.weights * self.values,
            minlength=grid.n_nodes) / grid.weights)

    def lifted(self) -> "ScalarField":
        """This field on the full grid: itself on a full grid; on an orbit
        grid, the parent field that is constant on orbits."""
        parent = getattr(self.grid, "parent", None)
        if parent is None:
            return self
        return ScalarField(parent, self.values[self.grid.orbit_id])


def field_from_radial(grid, profile, sign: float = 1.0) -> ScalarField:
    """Sample a radial profile onto a grid (zero outside its support)."""
    r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
    return ScalarField(grid, sign * profile(r))


@dataclass(frozen=True)
class FlowConfig:
    dt_max: float = 0.05
    c_stab: float = 0.2            # dt <= c_stab / (p sup^{p-1}), for accuracy
    t_max: float = 50.0
    decay_factor: float = 1e-6     # decay threshold, relative to initial sup
    record_nodal_every: int = 0    # 0: off; else nodal count cadence (steps)


BLOWUP_FACTOR = 1e4     # blow-up threshold, relative to the initial sup
DT_MIN = 1e-12          # a step below it is a step-size underflow: blow-up
RESIDUAL_EVERY = 20     # elliptic-residual check cadence (steps)


@dataclass
class Trajectory:
    times: np.ndarray
    energies: np.ndarray
    sup_norms: np.ndarray
    dts: np.ndarray
    classification: Classification
    final: ScalarField
    final_residual: float
    nodal_counts: list = field(default_factory=list)  # (t, count) samples
    # least-residual snapshot seen along the run (hovering near a saddle)
    best_snapshot: ScalarField | None = None
    best_residual: float = math.inf
    # steps whose energy rose by more than 1e-10 max(|E|, 1) (roundoff)
    energy_defects: int = 0

    @property
    def t_final(self) -> float:
        return float(self.times[-1])


class _TridiagonalFactor:
    """LDL^T factor of the symmetric positive definite tridiagonal matrix
    with ``diagonal`` and ``off_diagonal`` (LAPACK ``dpttrf``); ``solve``
    is ``dpttrs``.  A nonzero LAPACK ``info`` raises RuntimeError."""

    def __init__(self, diagonal: np.ndarray, off_diagonal: np.ndarray):
        self.d, self.e, info = lapack.dpttrf(diagonal, off_diagonal)
        if info != 0:
            raise RuntimeError(f"dpttrf info {info}: the tridiagonal step "
                               f"matrix is not positive definite")

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = lapack.dpttrs(self.d, self.e, b)
        if info != 0:
            raise RuntimeError(f"dpttrs info {info}")
        return x


def _lu_for(grid, dt: float):
    """The factor of W + dt K on ``grid`` (cached per dt): tridiagonal
    LDL^T from K's bands, else SuperLU."""
    key = float(dt)
    if key not in grid.step_factors:
        bands = grid.stiffness_bands
        if bands is None:
            mat = (sp.diags(grid.weights) + dt * grid.stiffness).tocsc()
            grid.step_factors[key] = spla.splu(mat)
        else:
            grid.step_factors[key] = _TridiagonalFactor(
                grid.weights + dt * bands.diagonal, dt * bands.off_diagonal)
    return grid.step_factors[key]


def step(v: ScalarField, p: float, dt: float, *,
         power: np.ndarray | None = None) -> ScalarField:
    """One IMEX step.

    ``power`` is |v|^{p-1} when the caller already has it; the step
    computes it otherwise (zeros give the pure heat step).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if power is None:
        power = np.abs(v.values) ** (p - 1.0)
    rhs = v.values + dt * power * v.values
    out = _lu_for(v.grid, dt).solve(v.grid.weights * rhs)
    return ScalarField(v.grid, out)


def _energy_and_power(grid, values: np.ndarray, abs_v: np.ndarray, p: float):
    """(E(v), |v|^{p-1}) with abs_v = |v|, for evolve, which runs under
    energy.FLOAT_RANGE.

    The power g = |v|^{p-1} is computed once, for sum w g |v| |v| here and
    for the next step's reaction.  A norm past the float range is inf, and
    E then -inf (a blow-up certificate) or nan.
    """
    power = abs_v ** (p - 1.0)
    lp1 = float(grid.weights @ (power * abs_v * abs_v))
    return 0.5 * grid.dirichlet_form(values) - lp1 / (p + 1.0), power


def _quantized_dt(dt_max: float, dt_target: float) -> float:
    k = max(0, math.ceil(math.log2(max(dt_max / max(dt_target, 1e-300), 1.0))))
    return dt_max / 2.0 ** k


@np.errstate(**energy_mod.FLOAT_RANGE)
def evolve(v0: ScalarField, p: float, config: FlowConfig = FlowConfig(),
           *, certify_decay: bool = False) -> Trajectory:
    """Time-step the flow from v0 on v0's grid until classification or
    t_max, under energy.FLOAT_RANGE; nodal samples (``record_nodal_every``)
    decompose the lifted field.

    DECAY means sup < decay_factor * sup0; with ``certify_decay`` also the
    decay certificate (module docstring) on a grid with a Perron pair.
    STEADY means residual <= spectrum.STEADY_RESIDUAL_TOL at a residual
    check while sup > 10 decay_factor sup0 (a decayed field's residual is
    inf), or a zero datum.
    """
    grid = v0.grid
    v = np.array(v0.values, dtype=float)
    abs_v = np.abs(v)
    sup = sup0 = float(np.max(abs_v))
    if sup0 == 0.0:
        return Trajectory(np.array([0.0]), np.array([0.0]), np.array([0.0]),
                          np.array([]), Classification.STEADY,
                          ScalarField(grid, v), 0.0)
    decay_at = config.decay_factor * sup0
    blowup_at = BLOWUP_FACTOR * sup0
    # decay certificate level for M (sup <= M, so sup is tested first)
    perron = grid.perron if certify_decay else None
    certify_at = 0.0 if perron is None else perron.mu ** (1.0 / (p - 1.0))

    E, power = _energy_and_power(grid, v, abs_v, p)
    energy_scale = max(abs(E), energy_mod.dirichlet_form(grid, v))
    times, energies, sups = [0.0], [E], [sup0]
    dts, nodal_counts = [], []
    t, n_step, defects = 0.0, 0, 0
    residual, best_snapshot, best_residual = math.inf, None, math.inf

    def residual_of(values):
        return spectrum_mod.elliptic_residual(ScalarField(grid, values), p)

    negative_at = -1e-9 * max(energy_scale, 1.0)  # blow-up certificate
    cls = Classification.BLOWUP if E < negative_at else None
    while cls is None:
        try:
            rate = p * sup ** (p - 1.0)
        except OverflowError:  # past the float range: dt underflows below
            rate = math.inf
        dt_target = min(config.dt_max, config.c_stab / max(rate, 1e-300))
        dt = _quantized_dt(config.dt_max, dt_target)
        if dt < DT_MIN:
            cls = Classification.BLOWUP  # step-size underflow
            break
        nxt = step(ScalarField(grid, v), p, dt, power=power).values
        abs_v = np.abs(nxt)
        sup = float(abs_v.max())  # nan or inf unless nxt is all finite
        if not math.isfinite(sup):
            cls = Classification.BLOWUP
            break
        E_new, power = _energy_and_power(grid, nxt, abs_v, p)
        if E_new - E > 1e-10 * max(abs(E), 1.0):
            defects += 1

        dts.append(dt)
        v = nxt
        t += dt
        n_step += 1
        E = E_new
        times.append(t)
        energies.append(E)
        sups.append(sup)

        if config.record_nodal_every and n_step % config.record_nodal_every == 0:
            dec = nodal_mod.decompose(ScalarField(grid, v).lifted())
            nodal_counts.append((t, dec.n_domains))

        if sup < decay_at or (sup < certify_at
                              and (abs_v / perron.psi).max() < certify_at):
            cls = Classification.DECAY
        elif sup > blowup_at:
            cls = Classification.BLOWUP
        elif E < negative_at:
            cls = Classification.BLOWUP
        elif n_step % RESIDUAL_EVERY == 0:
            residual = residual_of(v)
            if residual < best_residual and sup > 10.0 * decay_at:
                best_residual = residual
                best_snapshot = ScalarField(grid, v.copy())
            if (residual <= spectrum_mod.STEADY_RESIDUAL_TOL
                    and sup > 10.0 * decay_at):
                cls = Classification.STEADY
        if cls is None and t >= config.t_max:
            cls = Classification.MAXTIME

    if not math.isfinite(residual):
        residual = residual_of(v) if np.all(np.isfinite(v)) else math.inf
    final = ScalarField(grid, v)
    if cls == Classification.STEADY and residual < best_residual:
        best_snapshot, best_residual = final, residual
    return Trajectory(np.array(times), np.array(energies), np.array(sups),
                      np.array(dts), cls, final, residual,
                      nodal_counts, best_snapshot, best_residual, defects)


# ---------------------------------------------------------------------------
# threshold bisection
# ---------------------------------------------------------------------------

# Bisection stop: the default relative width of the lambda bracket, and the
# width in rad of the mixing-angle bracket.  Past it v0's energy moves less
# than the lambda bisection resolves.
WIDTH_TOL = 1e-3
# The first probe's lam, and how many times the bracket search may double
# or halve lam before the ray counts as unbracketable.
LAMBDA_INIT = 1.0
MAX_BRACKET = 60


class BracketError(RuntimeError):
    """No decay/blow-up bracket exists along the ray."""


@dataclass(frozen=True)
class Candidate:
    """A steady-state candidate: the field, its elliptic residual, and its
    source, "snapshot" (a probe's least-residual snapshot, Newton-polished
    when that lowers the residual) or "datum" (the polished threshold
    datum)."""

    field: ScalarField
    residual: float
    source: str


@dataclass
class ThresholdResult:
    lambda_star: float
    v0: ScalarField
    bisection_width: float
    probes: list  # (lambda, classification) log
    # sign of the blow-up closest to the threshold (+1/-1, 0 if none seen)
    blowup_sign: int = 0
    snapshot: Candidate | None = None
    # Newton applied to the threshold datum itself, kept when converged;
    # near a transition angle the datum sits close to the stable manifold
    # of the separating saddle
    datum: Candidate | None = None

    def accepted(self) -> Candidate | None:
        """The converged (residual <= spectrum.STEADY_RESIDUAL_TOL)
        sign-changing candidate of least residual (the snapshot on a tie),
        or None."""
        ok = [c for c in (self.snapshot, self.datum)
              if c is not None
              and c.residual <= spectrum_mod.STEADY_RESIDUAL_TOL
              and _is_sign_changing(c.field.values)]
        return min(ok, key=lambda c: c.residual, default=None)

    def to_dict(self) -> dict:
        snap, datum = self.snapshot, self.datum
        return {"lambda_star": self.lambda_star,
                "bisection_width": self.bisection_width,
                "residual": math.inf if snap is None else snap.residual,
                "sign_changing": (snap is not None
                                  and _is_sign_changing(snap.field.values)),
                "blowup_sign": self.blowup_sign,
                "datum_residual": math.inf if datum is None else datum.residual,
                "probes": [(lam, c.value) for lam, c in self.probes]}


def _is_sign_changing(values: np.ndarray) -> bool:
    """The values pass nodal's zero band both ways: the field's nodal
    decomposition has domains of both signs."""
    if not values.size:
        return False
    t = nodal_mod.ZERO_BAND_FACTOR * float(np.max(np.abs(values)))
    return bool(np.min(values) < -t and np.max(values) > t)


def threshold_bisect(direction: ScalarField, p: float,
                     config: FlowConfig = FlowConfig(),
                     width_tol: float = WIDTH_TOL,
                     polish: bool = True) -> ThresholdResult:
    """Bisect the ray {lam * direction} for the decay/blow-up threshold
    down to a relative bracket width of ``width_tol``.

    One loop runs the probes on a bracket (lo, hi) = (0, inf) from
    LAMBDA_INIT: it doubles lam while no blow-up has been seen and halves
    it while no decay has been seen, at most MAX_BRACKET times, then
    bisects.  MaxTimeReached probes count toward the decay side (their
    energy stayed nonnegative).  A ConvergedSteady probe ends the search at
    its own lam with bisection width 0: that field is already the
    omega-limit candidate.
    """
    if direction.sup == 0.0:
        raise ValueError("direction must be nonzero")

    probes: list = []
    snapshot, blowup_sign = None, 0
    lo, hi, lam, n_bracket = 0.0, math.inf, LAMBDA_INIT, 0
    while True:
        traj = evolve(direction.scaled(lam), p, config, certify_decay=True)
        cls = traj.classification
        probes.append((lam, cls))
        if traj.best_snapshot is not None and (
                snapshot is None or traj.best_residual < snapshot.residual):
            snapshot = Candidate(traj.best_snapshot, traj.best_residual,
                                 "snapshot")
        if cls == Classification.STEADY:
            lo = hi = lam
            break
        if cls == Classification.BLOWUP:
            hi = lam  # every probe lies below hi: the least blow-up so far
            v = np.nan_to_num(traj.final.values)
            blowup_sign = int(np.sign(v[np.argmax(np.abs(v))]))
        else:
            lo = lam
        if lo == 0.0 or hi == math.inf:
            if n_bracket == MAX_BRACKET:
                raise BracketError(
                    f"no decay/blow-up bracket found along the ray; probes: "
                    f"{[(l, c.value) for l, c in probes]}")
            n_bracket += 1
            lam = 2.0 * lo if hi == math.inf else hi / 2.0
        elif (hi - lo) / (0.5 * (hi + lo)) > width_tol:
            lam = 0.5 * (lo + hi)
        else:
            break

    lam_star = 0.5 * (lo + hi)
    v0 = direction.scaled(lam_star)
    datum = None
    if polish:
        if snapshot is not None:
            polished, pres = spectrum_mod.newton_polish(snapshot.field, p)
            if pres < snapshot.residual:
                snapshot = Candidate(polished, pres, "snapshot")
        polished, pres = spectrum_mod.newton_polish(v0, p)
        if pres <= spectrum_mod.STEADY_RESIDUAL_TOL:  # inf for a zero field
            datum = Candidate(polished, pres, "datum")
    return ThresholdResult(lam_star, v0, (hi - lo) / (2.0 * lam_star),
                           probes, blowup_sign, snapshot, datum)


# ---------------------------------------------------------------------------
# ray scan over the 2D subspace span(u1, u2)
# ---------------------------------------------------------------------------

@dataclass
class RayScanResult:
    # v0's ray: the angle bisection's last signed ray, else the candidate's
    chosen: tuple[ThresholdResult, float] | None
    # the accepted candidate of least residual over all rays, and its angle
    candidate: tuple[Candidate, float] | None
    all_results: list  # (theta, ThresholdResult | error string)

    @property
    def success(self) -> bool:
        return self.candidate is not None


def _ray_runner(u1: ScalarField, u2: ScalarField, p: float,
                config: FlowConfig, results: list):
    """(theta, polish) -> threshold result on the ray
    cos(theta) u1 + sin(theta) u2.

    Every ray is appended to ``results`` as (theta, ThresholdResult or the
    BracketError message); an unbracketable ray returns None.
    """
    def run(theta: float, polish: bool) -> ThresholdResult | None:
        direction = ScalarField(u1.grid, math.cos(theta) * u1.values
                                + math.sin(theta) * u2.values)
        try:
            res = threshold_bisect(direction, p, config, polish=polish)
        except BracketError as exc:
            res = str(exc)
        results.append((theta, res))
        return res if isinstance(res, ThresholdResult) else None
    return run


def refine_transition(run, results: list
                      ) -> tuple[ThresholdResult, float] | None:
    """Bisect the mixing angle on the blow-up sign, from the first flip
    between angle-adjacent signed rays of ``results`` until the bracket is
    no wider than WIDTH_TOL rad.

    The sign of the blow-up nearest the threshold flips where the
    threshold family passes the sign-changing saddle.  The threshold datum
    there is the energy-consistent initial condition: it sits above the
    saddle in energy, while data on rays away from the transition may not.
    A ray is Newton-polished only while no ray of ``results`` has a
    converged sign-changing candidate.  An unbracketable ray or one of
    blow-up sign 0 ends the bisection.  Returns the last signed (threshold
    result, angle) it ran, or None, also when no two rays differ in sign
    or their bracket is already no wider than WIDTH_TOL.
    """
    signed = [(th, r.blowup_sign)
              for th, r in sorted(results, key=lambda x: x[0])
              if isinstance(r, ThresholdResult) and r.blowup_sign != 0]
    flips = [(t1, t2, s1) for (t1, s1), (t2, s2) in zip(signed, signed[1:])
             if s1 != s2]
    if not flips:
        return None
    lo, hi, s_lo = flips[0]
    last = None
    while hi - lo > WIDTH_TOL:
        mid = 0.5 * (lo + hi)
        r = run(mid, polish=not any(isinstance(x, ThresholdResult)
                                    and x.accepted() for _, x in results))
        if r is None or r.blowup_sign == 0:
            break
        last = (r, mid)
        lo, hi = (mid, hi) if r.blowup_sign == s_lo else (lo, mid)
    return last


def ray_scan(u1: ScalarField, u2: ScalarField, p: float,
             ratios=None, config: FlowConfig = FlowConfig()) -> RayScanResult:
    """Threshold-bisect along cos(theta) u1 + sin(theta) u2 per ratio (the
    fan, every ray Newton-polished), then bisect the mixing angle on the
    blow-up sign (`refine_transition`) in the same pass.

    The candidate is the converged sign-changing candidate of least
    elliptic residual over all rays, a polished hovering snapshot or a
    polished threshold datum; v0's ray is the bisection's last signed ray,
    else the candidate's.  An empty scan is a labeled outcome, not an
    error.
    """
    overlap = (u1.values != 0.0) & (u2.values != 0.0)
    if np.any(overlap):
        raise ValueError("u1 and u2 must have disjoint supports")
    if ratios is None:
        ratios = np.linspace(0.1, math.pi / 2.0 - 0.1, 7)

    results: list = []
    run = _ray_runner(u1, u2, p, config, results)
    for theta in ratios:
        run(theta, polish=True)
    chosen = refine_transition(run, results)

    found = [(c, th, r) for th, r in results
             if isinstance(r, ThresholdResult) and (c := r.accepted())]
    if not found:
        return RayScanResult(chosen, None, results)
    cand, theta, ray = min(found, key=lambda x: x[0].residual)
    return RayScanResult(chosen or (ray, theta), (cand, theta), results)


# a name only, never called: perfbench/spans.py wraps it until ROADMAP
# item 2 drops that span
def restart_from_nodal_pair(*args, **kwargs):
    raise NotImplementedError("the nodal restart path was removed")
