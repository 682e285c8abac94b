"""Semilinear heat flow: IMEX stepping, classification, threshold search.

One step solves (W + dt K) v_{n+1} = W (v_n + dt |v_n|^{p-1} v_n): implicit
backward-Euler diffusion (sparse LU, each grid owns its factorizations per
step size), explicit reaction.  That is Eyre's convex splitting of the
energy, so E(v_{n+1}) <= E(v_n) - dt ||(v_{n+1} - v_n)/dt||_W^2 at any dt:
no step is rejected, an energy rise beyond roundoff is counted as a defect,
and ``c_stab`` bounds dt where |v| is large for accuracy, not stability.

The flow runs on the grid of its field.  On the orbit grid
``grid.quotient(G)`` (a field goes there by ``field.on(orbits)`` and comes
back by ``field.lifted()``) it is exactly the G-invariant flow, with one
unknown per orbit instead of per node: group elements are node
permutations commuting with K and W, and the reaction acts node by node.

Trajectories are classified as decay to zero, blow-up, convergence to a
steady state (small elliptic residual) or time-out.  Negative energy is
used as an early blow-up certificate: the energy decreases along the flow
and no globally decaying trajectory can have E_p < 0.  Threshold probes
also stop at a decay certificate (a discrete comparison principle): given
the grid's Perron pair K psi >= mu W psi, psi > 0, max psi = 1, once
M = max |v| / psi has M^{p-1} < mu every later step shrinks M by the factor
(1 + dt M^{p-1}) / (1 + dt mu) < 1, as (W + dt K)^{-1} W >= 0 (an M-matrix
inverse) and v -> v + dt |v|^{p-1} v is odd and increasing.

Threshold initial data on the boundary of the attraction domain of zero
are located by bisection along rays of initial data, with an outer fan and
one bisection over the mixing angle in the 2D space spanned by two
disjointly supported profiles.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    residual_tol: float = 1e-6     # ConvergedSteady elliptic residual
    record_nodal_every: int = 0    # 0: off; else nodal count cadence (steps)


BLOWUP_FACTOR = 1e4     # blow-up threshold, relative to the initial sup
DT_MIN = 1e-12          # a step below it is a step-size underflow: blow-up
RESIDUAL_EVERY = 20     # elliptic-residual check cadence (steps)


@dataclass
class Trajectory:
    times: np.ndarray
    energies: np.ndarray
    sup_norms: np.ndarray
    vdot_sq: np.ndarray            # ||(v_{n+1}-v_n)/dt||_2^2 per accepted step
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


def _lu_for(grid, dt: float):
    key = float(dt)
    if key not in grid.step_factors:
        mat = (sp.diags(grid.weights) + dt * grid.stiffness).tocsc()
        grid.step_factors[key] = spla.splu(mat)
    return grid.step_factors[key]


def step(v: ScalarField, p: float, dt: float, *, reaction: bool = True,
         power: np.ndarray | None = None) -> ScalarField:
    """One IMEX step; ``reaction=False`` gives the pure heat step.

    ``power`` is |v|^{p-1} when the caller already has it; the step
    computes it otherwise.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = v.grid
    rhs = v.values
    if reaction:
        if power is None:
            power = np.abs(v.values) ** (p - 1.0)
        rhs = rhs + dt * power * v.values
    out = _lu_for(grid, dt).solve(grid.weights * rhs)
    return ScalarField(grid, out)


def _energy_of(grid, values: np.ndarray, p: float) -> float:
    grad = grid.dirichlet_form(values)
    lp1 = energy_mod.lp1_norm_pow(grid, values, p)
    return 0.5 * grad - lp1 / (p + 1.0)


def _energy_and_power(grid, values: np.ndarray, abs_v: np.ndarray,
                      sup: float, p: float):
    """(E(v), |v|^{p-1}) with abs_v = |v| and sup = max |v|.

    Where |v|^{p+1} is summed directly the power g = |v|^{p-1} is computed
    once, for sum w g |v| |v| here and for the next step's reaction.  On
    the log-domain branch the power is None and the step takes its own.
    """
    if sup > 0.0 and not energy_mod.direct_power(sup, p):
        return _energy_of(grid, values, p), None
    power = abs_v ** (p - 1.0)
    lp1 = float(grid.weights @ (power * abs_v * abs_v))
    return 0.5 * grid.dirichlet_form(values) - lp1 / (p + 1.0), power


def _quantized_dt(dt_max: float, dt_target: float) -> float:
    k = max(0, math.ceil(math.log2(max(dt_max / max(dt_target, 1e-300), 1.0))))
    return dt_max / 2.0 ** k


def evolve(v0: ScalarField, p: float, config: FlowConfig = FlowConfig(),
           *, certify_decay: bool = False) -> Trajectory:
    """Time-step the flow from v0 on v0's grid until classification or
    t_max; nodal samples (``record_nodal_every``) decompose the lifted field.

    DECAY means sup < decay_factor * sup0; with ``certify_decay`` also the
    decay certificate (module docstring) on a grid with a Perron pair.
    """
    grid = v0.grid
    v = np.array(v0.values, dtype=float)
    abs_v = np.abs(v)
    sup = sup0 = float(np.max(abs_v))
    if sup0 == 0.0:
        return Trajectory(np.array([0.0]), np.array([0.0]), np.array([0.0]),
                          np.array([]), np.array([]), Classification.STEADY,
                          ScalarField(grid, v), 0.0)
    decay_at = config.decay_factor * sup0
    blowup_at = BLOWUP_FACTOR * sup0
    # decay certificate level for M (sup <= M, so sup is tested first)
    perron = grid.perron if certify_decay else None
    certify_at = 0.0 if perron is None else perron.mu ** (1.0 / (p - 1.0))

    E, power = _energy_and_power(grid, v, abs_v, sup0, p)
    energy_scale = max(abs(E), grid.dirichlet_form(v))
    times, energies, sups = [0.0], [E], [sup0]
    vdots, dts, nodal_counts = [], [], []
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
        E_new, power = _energy_and_power(grid, nxt, abs_v, sup, p)
        if E_new - E > 1e-10 * max(abs(E), 1.0):
            defects += 1

        vdots.append(float(grid.weights @ ((nxt - v) / dt) ** 2))
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
            if residual < config.residual_tol and sup > 10.0 * decay_at:
                cls = Classification.STEADY
        if cls is None and t >= config.t_max:
            cls = Classification.MAXTIME

    if not math.isfinite(residual):
        residual = residual_of(v) if np.all(np.isfinite(v)) else math.inf
    final = ScalarField(grid, v)
    if cls == Classification.STEADY and residual < best_residual:
        best_snapshot, best_residual = final, residual
    return Trajectory(np.array(times), np.array(energies), np.array(sups),
                      np.array(vdots), np.array(dts), cls, final, residual,
                      nodal_counts, best_snapshot, best_residual, defects)


# ---------------------------------------------------------------------------
# threshold bisection
# ---------------------------------------------------------------------------

# Bisection stop: the default relative width of the lambda bracket, and the
# width in rad of the mixing-angle bracket.  Past it v0's energy moves less
# than the lambda bisection resolves.
WIDTH_TOL = 1e-3
# Elliptic residual up to which a threshold result's candidate counts as
# converged: only those are scan candidates or carry a sign.
CONVERGED_RESIDUAL = 1e-6


class BracketError(RuntimeError):
    """No decay/blow-up bracket exists along the ray."""


@dataclass
class ThresholdResult:
    lambda_star: float
    v0: ScalarField
    omega_candidate: ScalarField | None
    bisection_width: float
    residual: float
    sign_changing: bool
    probes: list  # (lambda, classification) log
    # sign of the blow-up closest to the threshold (+1/-1, 0 if none seen)
    blowup_sign: int = 0
    # Newton applied to the threshold datum itself; near a transition angle
    # the datum sits close to the stable manifold of the separating saddle
    datum_candidate: ScalarField | None = None
    datum_residual: float = math.inf

    def best_sign_changing(self) -> tuple[ScalarField | None, float,
                                          str | None]:
        """(field, residual, source) of the converged sign-changing
        candidate of least residual, or (None, inf, None); the source is
        "snapshot" (the polished hovering snapshot) or "datum" (the
        polished threshold datum)."""
        out = (None, math.inf, None)
        for cand, r, source in (
                (self.omega_candidate, self.residual, "snapshot"),
                (self.datum_candidate, self.datum_residual, "datum")):
            if (cand is not None and r <= CONVERGED_RESIDUAL and r < out[1]
                    and _is_sign_changing(cand.values)):
                out = (cand, r, source)
        return out

    def to_dict(self) -> dict:
        return {"lambda_star": self.lambda_star,
                "bisection_width": self.bisection_width,
                "residual": self.residual,
                "sign_changing": self.sign_changing,
                "blowup_sign": self.blowup_sign,
                "datum_residual": self.datum_residual,
                "probes": [(lam, c.value) for lam, c in self.probes]}


def _is_sign_changing(values: np.ndarray, rel_tol: float = 1e-3) -> bool:
    if not values.size:
        return False
    t = rel_tol * float(np.max(np.abs(values)))
    return bool(np.min(values) < -t and np.max(values) > t)


def threshold_bisect(direction: ScalarField, p: float,
                     config: FlowConfig = FlowConfig(),
                     lambda_init: float = 1.0,
                     width_tol: float = WIDTH_TOL,
                     polish: bool = True,
                     max_bracket: int = 60) -> ThresholdResult:
    """Bisect the ray {lam * direction} for the decay/blow-up threshold
    down to a relative bracket width of ``width_tol``.

    MaxTimeReached probes count toward the decay side (their energy stayed
    nonnegative).  If a probe converges to a steady state the bisection
    stops there: that field is already the omega-limit candidate.
    """
    if direction.sup == 0.0:
        raise ValueError("direction must be nonzero")

    probes: list = []
    best = {"field": None, "res": math.inf}
    blow = {"lam": math.inf, "sign": 0}

    def classify(lam: float) -> str:
        traj = evolve(direction.scaled(lam), p, config, certify_decay=True)
        probes.append((lam, traj.classification))
        if traj.best_snapshot is not None and traj.best_residual < best["res"]:
            best["field"], best["res"] = traj.best_snapshot, traj.best_residual
        if traj.classification == Classification.BLOWUP:
            if lam < blow["lam"]:
                v = np.nan_to_num(traj.final.values)
                blow["lam"] = lam
                blow["sign"] = int(np.sign(v[np.argmax(np.abs(v))]))
            return "blow"
        if traj.classification == Classification.STEADY:
            return "steady"
        return "decay"

    lam_lo = lam_hi = None
    lam = lambda_init
    out = classify(lam)
    if out == "blow":
        lam_hi = lam
        for _ in range(max_bracket):
            lam /= 2.0
            out = classify(lam)
            if out != "blow":
                lam_lo = lam
                break
            lam_hi = lam
    else:
        lam_lo = lam
        if out != "steady":
            for _ in range(max_bracket):
                lam *= 2.0
                out = classify(lam)
                if out == "blow":
                    lam_hi = lam
                    break
                lam_lo = lam
    if out != "steady" and (lam_lo is None or lam_hi is None):
        raise BracketError(
            f"no decay/blow-up bracket found along the ray; probes: "
            f"{[(l, c.value) for l, c in probes]}")

    if out != "steady":
        while (lam_hi - lam_lo) / (0.5 * (lam_hi + lam_lo)) > width_tol:
            mid = 0.5 * (lam_lo + lam_hi)
            res = classify(mid)
            if res == "steady":
                lam_lo = lam_hi = mid
                break
            if res == "blow":
                lam_hi = mid
            else:
                lam_lo = mid

    lam_star = 0.5 * (lam_lo + lam_hi) if lam_hi is not None else lam_lo
    width = ((lam_hi - lam_lo) / (2.0 * lam_star)
             if lam_hi is not None and lam_hi > lam_lo else width_tol)

    v0 = direction.scaled(lam_star)
    candidate, residual = best["field"], best["res"]
    if polish and candidate is not None and candidate.sup > 0:
        polished, pres = spectrum_mod.newton_polish(candidate, p)
        if pres < residual:
            candidate, residual = polished, pres

    datum_candidate, datum_residual = None, math.inf
    if polish:
        polished, pres = spectrum_mod.newton_polish(v0, p)
        if pres < CONVERGED_RESIDUAL and polished.sup > 0:
            datum_candidate, datum_residual = polished, pres

    sign_changing = (candidate is not None
                     and _is_sign_changing(candidate.values))
    return ThresholdResult(lam_star, v0, candidate, width, residual,
                           sign_changing, probes, blow["sign"],
                           datum_candidate, datum_residual)


# ---------------------------------------------------------------------------
# ray scan over the 2D subspace span(u1, u2)
# ---------------------------------------------------------------------------

@dataclass
class RayScanResult:
    # v0's ray: the angle bisection's last signed ray, else the candidate's
    chosen: tuple[ThresholdResult, float] | None
    candidate: ScalarField | None
    candidate_theta: float | None
    candidate_source: str | None   # "snapshot" or "datum"
    candidate_residual: float
    all_results: list  # (theta, ThresholdResult | error string)

    @property
    def success(self) -> bool:
        return self.candidate is not None

    def provenance(self) -> dict:
        """The candidate's ray angle, source and elliptic residual."""
        return {"theta": self.candidate_theta,
                "source": self.candidate_source,
                "residual": self.candidate_residual}


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


def _has_candidate(res) -> bool:
    return (isinstance(res, ThresholdResult)
            and res.best_sign_changing()[0] is not None)


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
        r = run(mid, polish=not any(_has_candidate(x) for _, x in results))
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

    found = [(r.best_sign_changing(), th, r) for th, r in results
             if _has_candidate(r)]
    if not found:
        return RayScanResult(chosen, None, None, None, math.inf, results)
    (cand, res, source), theta, ray = min(found, key=lambda x: x[0][1])
    return RayScanResult(chosen or (ray, theta), cand, theta, source, res,
                         results)


# a name only, never called: perfbench/spans.py wraps it until ROADMAP
# item 4 drops that span
def restart_from_nodal_pair(*args, **kwargs):
    raise NotImplementedError("the nodal restart path was removed")
