"""Radial Lane-Emden solver on balls and annuli, plus explicit profiles.

The ODE u'' + u'/r + |u|^{p-1} u = 0 is integrated in the log-radius
variable t = log r, where it becomes u_tt = -e^{2t} |u|^{p-1} u.  This is
essential at large p: the positive ball solution normalized to u(0) = 1
has its first zero at r ~ e^{p/4}, far outside any fixed interval, while
in t the solution is uniformly smooth.  Energies are also natural there:

    integral u'(r)^2 r dr = integral u_t(t)^2 dt.

Profiles are sampled geometrically in r (uniformly in t), which resolves
the concentration layers both on the ball (near r = 0) and on annuli with
tiny inner radius.

Annulus solutions are found by Newton's method on the initial slope s of
the shot from u(log a) = 0: each shot integrates the slope's variational
equation beside the solution, so F(s) = u(log b; s) and F'(s) come from
one integration.  A [lo, hi] slope bracket with bisection guards the
iteration, and optimal_alpha warm-starts each solve from the slopes it
has already found.

Every shot, of the ball or of an annulus, is one call of solve_ivp below:
scipy's DOP853 method (the tableau of scipy.integrate.DOP853, its step
control, event location and dense output) written out on Python floats
for the four lanes (u, u_t, du/ds, du_t/ds).  It is not
scipy.integrate.solve_ivp because at four lanes that spends most of each
step in small-array numpy calls, event bookkeeping and OdeSolution
rather than in arithmetic; the float kernel takes about a quarter of the
time per shot.  Its steps are not bitwise scipy's (summation order
differs), but its profiles agree with scipy's to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, simpson
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import logsumexp

from .energy import EnergyReport, direct_power

ENDPOINT_TOL = 1e-10
AMPLITUDE_EXPONENT_GUARD = 600.0  # reject alpha * p beyond this
ALPHA_BOUNDS = (0.05, 0.9)  # the interval optimal_alpha searches
ALPHA_XATOL = 1e-5  # optimal_alpha's absolute tolerance in alpha
MAX_SHOTS = 100  # per annulus solve
DENSE_RATIO = 1e-4  # |u(b)| / sup below which Newton is about to converge
N_SAMPLES = 4096  # samples of every solved or explicit profile
RTOL = 1e-11  # relative tolerance of every radial integration
ATOL = 1e-14  # absolute tolerance on (u, u_t) of every radial integration
# log of the largest rescaled amplitude: twice it, squared, is still a float
_LOG_AMPLITUDE_MAX = 0.5 * math.log(np.finfo(float).max) - math.log(2.0)


class RadialSolveError(RuntimeError):
    """Shooting/integration failure with diagnostics."""


@dataclass
class RadialProfile:
    """Sampled radial function with derivative on [r_in, r_out].

    ``segments`` lists index ranges of smooth pieces (quadrature is done
    per piece; piecewise-defined profiles have a derivative jump at the
    break point).  ``slope`` is the initial slope u_t(log r_in) of the shot
    that produced an annulus solution.
    """

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    r_in: float
    r_out: float
    p: float
    segments: tuple[tuple[int, int], ...] = field(default=None)  # type: ignore
    slope: float | None = None

    def __post_init__(self):
        if self.segments is None:
            self.segments = ((0, len(self.r)),)
        self._interp = None

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.u)))

    def __call__(self, r) -> np.ndarray:
        """Interpolated values; zero outside [r_in, r_out]."""
        if self._interp is None:
            # piecewise profiles repeat the break radius at segment joints
            keep = np.concatenate([[True], np.diff(self.r) > 0.0])
            self._interp = PchipInterpolator(self.r[keep], self.u[keep],
                                             extrapolate=False)
        r = np.asarray(r, dtype=float)
        out = self._interp(r)
        return np.nan_to_num(out, nan=0.0)

    def scaled(self, lam: float) -> "RadialProfile":
        """Similarity rescaling u_lam(r) = lam^{2/(p-1)} u(lam r)."""
        amp = _amplitude(lam, self.p)
        return RadialProfile(self.r / lam, amp * self.u, amp * lam * self.du,
                             self.r_in / lam, self.r_out / lam, self.p,
                             self.segments)


def _amplitude(lam: float, p: float) -> float:
    """lam^{2/(p-1)}, the amplitude factor of the similarity rescaling; the
    energy squares the slope, which reaches about 1.4 times the amplitude."""
    log_amp = 2.0 * math.log(lam) / (p - 1.0)
    if log_amp > _LOG_AMPLITUDE_MAX:  # p near 1
        raise RadialSolveError(
            f"the rescaled amplitude lambda^(2/(p-1)) = exp({log_amp:.4g}) "
            f"at p = {p:g} passes the float range")
    return lam ** (2.0 / (p - 1.0))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _log_quadrature_lp1(profile: RadialProfile, p: float) -> float:
    """2 pi * integral |u|^{p+1} r dr, accumulated in the log domain."""
    total_parts = []
    for a, b in profile.segments:
        r, u = profile.r[a:b], np.abs(profile.u[a:b])
        nz = u > 0.0
        if nz.sum() < 3:
            continue
        # trapezoid weights on the sample grid
        w = np.zeros_like(r)
        w[1:] += 0.5 * np.diff(r)
        w[:-1] += 0.5 * np.diff(r)
        good = nz & (w > 0) & (r > 0)
        logs = (p + 1.0) * np.log(u[good]) + np.log(r[good] * w[good])
        total_parts.append(logsumexp(logs))
    if not total_parts:
        return 0.0
    return float(2.0 * math.pi * np.exp(logsumexp(np.array(total_parts))))


def radial_energy(profile: RadialProfile, p: float | None = None) -> EnergyReport:
    """Energy report from 1D quadrature (Simpson per smooth segment)."""
    if p is None:
        p = profile.p
    sup = profile.sup
    direct = sup > 0 and direct_power(sup, p)
    grad = lp1 = 0.0
    for a, b in profile.segments:
        r, u, du = profile.r[a:b], profile.u[a:b], profile.du[a:b]
        if len(r) < 3:
            continue
        grad += 2.0 * math.pi * simpson(du * du * r, x=r)
        if direct:
            lp1 += 2.0 * math.pi * simpson(np.abs(u) ** (p + 1.0) * r, x=r)
    if not direct:
        lp1 = _log_quadrature_lp1(profile, p)
    return EnergyReport.from_norms(grad, lp1, p)


# ---------------------------------------------------------------------------
# the shot: scipy's DOP853 on Python floats
# ---------------------------------------------------------------------------

def _nonzero(row) -> tuple[tuple[int, float], ...]:
    """(index, coefficient) pairs of the nonzero entries of a tableau row."""
    return tuple((j, a) for j, a in enumerate(row.tolist()) if a != 0.0)


# the tableau of scipy.integrate.DOP853, read at import
_STAGES = tuple((c, _nonzero(a[:s])) for s, (a, c)
                in enumerate(zip(DOP853.A, DOP853.C.tolist())) if s)
_EXTRA_STAGES = tuple((c, _nonzero(a)) for a, c
                      in zip(DOP853.A_EXTRA, DOP853.C_EXTRA.tolist()))
_B, _E3, _E5 = _nonzero(DOP853.B), _nonzero(DOP853.E3), _nonzero(DOP853.E5)
_D = tuple(_nonzero(row) for row in DOP853.D)
# scipy's step control
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_EVENT_TOL = 4.0 * float(np.finfo(float).eps)  # brentq's xtol and rtol
_FSAL = DOP853.n_stages  # row of f(t + h, y_new) among a step's stages


def _shot_rhs(p: float):
    """RHS of (u, u_t) and of its slope derivative (w, w_t).

    u_tt = -e^{2t} |u|^{p-1} u, and w = du/ds solves the variational
    equation w_tt = -p e^{2t} |u|^{p-1} w.  The force is capped at e^700,
    so steep trial steps give large or non-finite values that the step
    control rejects, and never an exception.
    """
    def rhs(t, u, ut, w, wt):
        if u == 0.0:
            return ut, 0.0, wt, 0.0
        mag = math.exp(min(2.0 * t + p * math.log(abs(u)), 700.0))
        return ut, -math.copysign(mag, u), wt, -p * mag / abs(u) * w
    return rhs


def _combine(K, pairs):
    """sum_j a_j K[j] over the four lanes, accumulated in index order."""
    d0 = d1 = d2 = d3 = 0.0
    for j, a in pairs:
        k0, k1, k2, k3 = K[j]
        d0 += a * k0
        d1 += a * k1
        d2 += a * k2
        d3 += a * k3
    return d0, d1, d2, d3


def _add_stages(rhs, K, stages, t, y, h):
    """Append the RK stages ``stages`` of the step (t, y, h) to K."""
    y0, y1, y2, y3 = y
    for c, pairs in stages:
        d0, d1, d2, d3 = _combine(K, pairs)
        K.append(rhs(t + c * h, y0 + d0 * h, y1 + d1 * h, y2 + d2 * h,
                     y3 + d3 * h))


def _rms(x0, x1, x2, x3) -> float:
    return math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3) / 2.0


def _initial_step(rhs, t, y, f, length, rtol, atol) -> float:
    """Hairer's initial step rule, as scipy's select_initial_step."""
    scale = [a + abs(v) * rtol for v, a in zip(y, atol)]
    d0 = _rms(*(v / s for v, s in zip(y, scale)))
    d1 = _rms(*(v / s for v, s in zip(f, scale)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    f1 = rhs(t + h0, *(v + h0 * g for v, g in zip(y, f)))
    d2 = _rms(*((g1 - g) / s for g1, g, s in zip(f1, f, scale))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100.0 * h0, h1, length)


def _step_coefficients(K, h, y, y_new):
    """The 7 x 4 interpolation coefficients of one step, as scipy's."""
    f_old, f_new = K[0], K[_FSAL]
    dy = [b - a for a, b in zip(y, y_new)]
    return [dy,
            [h * f - d for f, d in zip(f_old, dy)],
            [2.0 * d - h * (g + f) for d, g, f in zip(dy, f_new, f_old)],
            *([h * v for v in _combine(K, row)] for row in _D)]


def _interpolate(F, y_old, x, lane) -> float:
    """Lane ``lane`` of the step interpolant at fraction x of the step."""
    v = 0.0
    for i in range(6, -1, -1):
        v = (v + F[i][lane]) * (x if i % 2 == 0 else 1.0 - x)
    return v + y_old[lane]


class DenseShot:
    """The piecewise interpolant of a shot: sol(t) has shape (4, len(t))."""

    def __init__(self, ts, t_old, h, y_old, y_new, K):
        self.ts, self.t_old, self.h, self.y_old = ts, t_old, h, y_old
        dy = y_new - y_old
        hc = h[:, None]
        self.F = np.concatenate([
            dy[:, None], (hc * K[:, 0] - dy)[:, None],
            (2.0 * dy - hc * (K[:, _FSAL] + K[:, 0]))[:, None],
            hc[:, None] * (DOP853.D @ K)], axis=1)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0,
                      len(self.h) - 1)
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        F = self.F[seg]
        y = np.zeros((len(t), 4))
        for i in range(6, -1, -1):
            y += F[:, i]
            y *= x if i % 2 == 0 else 1.0 - x
        return (y + self.y_old[seg]).T


@dataclass
class Shot:
    """What a shot returns, with the meanings of scipy's solve_ivp result.

    ``status`` is 0 when the shot reached t_span[1], 1 when it stopped at
    a trough and -1 when the step size fell below its floor.  ``t`` and
    ``y`` (shape (4, len(t))) are the accepted steps, ending at the trough
    on status 1; ``t_events`` lists the zeros of u and the trough; ``sol``
    is the DenseShot, or None for a shot without dense output.
    """

    t: np.ndarray
    y: np.ndarray
    t_events: list
    status: int
    sol: DenseShot | None


def solve_ivp(p: float, t_span, y0, rtol: float, first_step=None,
              dense_output: bool = False) -> Shot:
    """Integrate (u, u_t, du/ds, du_t/ds) over t_span from y0 by DOP853.

    scipy's DOP853 (its tableau, step-size control and dense output) on
    Python floats: at four lanes scipy's small-array numpy calls cost far
    more than the arithmetic.  rtol and ATOL are divided by sqrt(2) and the
    derivative lanes get atol 1e300, so (u, u_t) have exactly the step
    control of a two-lane integration and the derivative does not drive
    it.  Zeros of u (falling) are recorded in ``t_events[0]``; a trough
    (u_t = 0, rising) is recorded in ``t_events[1]`` and ends the shot.
    Each is located by brentq on the step's interpolant, whose three extra
    stages are computed only on steps with an event and on dense shots.
    ``first_step`` defaults to Hairer's rule.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    rhs = _shot_rhs(p)
    tol = 1.0 / math.sqrt(2.0)
    rtol *= tol
    atol = (ATOL * tol, ATOL * tol, 1e300, 1e300)
    y = tuple(float(v) for v in y0)
    f = rhs(t, *y)
    h_abs = (first_step if first_step is not None
             else _initial_step(rhs, t, y, f, t_bound - t, rtol, atol))
    ts, ys = [t], [y]
    steps = []  # (t_old, h, y_old, y_new, stages) of every step if dense
    t_zero, t_trough = [], []
    status = None
    while status is None:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            K = [f]
            _add_stages(rhs, K, _STAGES, t, y, h)
            b0, b1, b2, b3 = _combine(K, _B)
            y_new = (y[0] + h * b0, y[1] + h * b1, y[2] + h * b2,
                     y[3] + h * b3)
            K.append(rhs(t_new, *y_new))
            n5 = n3 = 0.0  # squared norms of the scaled error estimates
            for a, v, w, e5, e3 in zip(atol, y, y_new, _combine(K, _E5),
                                       _combine(K, _E3)):
                scale = a + max(abs(v), abs(w)) * rtol
                e5 /= scale
                e3 /= scale
                n5 += e5 * e5
                n3 += e3 * e3
            if n5 == 0.0 and n3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * n5 / math.sqrt((n5 + 0.01 * n3) * 4.0)
            if error_norm < 1.0:
                factor = (_MAX_FACTOR if error_norm == 0.0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        if t_new >= t_bound:
            status = 0
        falls = y[0] >= 0.0 >= y_new[0]
        rises = y[1] <= 0.0 <= y_new[1]
        if dense_output or falls or rises:
            _add_stages(rhs, K, _EXTRA_STAGES, t, y, h)
        t_end, y_end = t_new, y_new
        if falls or rises:
            F = _step_coefficients(K, h, y, y_new)

            def root(lane):
                return brentq(lambda s: _interpolate(F, y, (s - t) / h, lane),
                              t, t_new, xtol=_EVENT_TOL, rtol=_EVENT_TOL)
            zero = root(0) if falls else math.inf
            if rises:  # terminal; a zero after the trough is not reached
                t_end = root(1)
                t_trough.append(t_end)
                y_end = tuple(_interpolate(F, y, (t_end - t) / h, lane)
                              for lane in range(4))
                status = 1
            if zero <= t_end:
                t_zero.append(zero)
        if dense_output:
            steps.append((t, h, y, y_new, K))
        ts.append(t_end)
        ys.append(y_end)
        t, y, f = t_new, y_new, K[_FSAL]
    sol = None
    if dense_output and steps:
        t_old, h, y_old, y_new, K = zip(*steps)
        sol = DenseShot(np.array(ts), np.array(t_old), np.array(h),
                        np.array(y_old), np.array(y_new), np.array(K))
    return Shot(np.array(ts), np.array(ys).T,
                [np.array(t_zero), np.array(t_trough)], status, sol)


# ---------------------------------------------------------------------------
# ball solution
# ---------------------------------------------------------------------------

def _integrate_ball_log(p: float):
    """Integrate from u(0)=1 in t = log r past the first zero.

    The shot ends at the trough after the zero.  Returns (shot, t_start,
    t_zero).
    """
    # series start: u = 1 - e^{2t}/4 + O(e^{4t}); valid where e^{2t} tiny
    t_start = 0.5 * math.log(1.0 / max(p, 1.0)) - 8.0

    e2t = math.exp(2.0 * t_start)
    y0 = [1.0 - e2t / 4.0, -e2t / 2.0, 0.0, 0.0]
    t_end = t_start + max(40.0, 0.3 * p + 40.0)
    sol = solve_ivp(p, (t_start, t_end), y0, RTOL, dense_output=True)
    if not sol.t_events[0].size:
        raise RadialSolveError(
            f"no zero of the ball solution found for p={p} "
            f"(integrated to log r = {t_end:.1f})")
    return sol, t_start, float(sol.t_events[0][0])


def solve_ball(p: float) -> RadialProfile:
    """Positive radial solution on the unit ball with u(1) = 0.

    Integrates from the center with unit amplitude, locates the first zero
    r0 and applies the exact similarity rescaling with lambda = r0.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    sol, t_start, t_zero = _integrate_ball_log(p)
    lam = math.exp(t_zero)
    amp = _amplitude(lam, p)

    t_s = np.linspace(t_start, t_zero, N_SAMPLES - 1)
    y = sol.sol(t_s)
    u_t, ut_t = y[0], y[1]
    u_t[-1] = 0.0  # exact Dirichlet endpoint
    r_unscaled = np.exp(t_s)

    r = np.empty(N_SAMPLES)
    u = np.empty(N_SAMPLES)
    du = np.empty(N_SAMPLES)
    r[0], u[0], du[0] = 0.0, amp, 0.0
    r[1:] = r_unscaled / lam
    u[1:] = amp * u_t
    du[1:] = amp * ut_t / (r_unscaled / lam)
    r[-1] = 1.0
    return RadialProfile(r, u, du, 0.0, 1.0, p)


def ball_energy(p: float) -> EnergyReport:
    """Energy report of the positive ball solution."""
    return radial_energy(solve_ball(p), p)


def build_ball_solution_scaled(p: float, alpha: float,
                               ball: RadialProfile) -> RadialProfile:
    """u_{p,2,alpha}: the ball solution rescaled to radius e^{-alpha p}.

    Exact similarity rescaling of ``ball``, the solution solve_ball(p);
    no re-integration.
    """
    if alpha < 0:
        raise ValueError("need alpha >= 0")
    if alpha * p > AMPLITUDE_EXPONENT_GUARD:
        raise ValueError(f"alpha*p = {alpha * p:.1f} too large; the scaled "
                         "amplitude exceeds the overflow guard")
    return ball.scaled(math.exp(alpha * p))


def ball_scaled_energy(p: float, alpha: float,
                       ball: RadialProfile) -> EnergyReport:
    """Energy of u_{p,2,alpha} via the exact scaling identity.

    ||grad u_{p,2,alpha}||^2 = e^{4 alpha p/(p-1)} ||grad w_p||^2, and the
    L^{p+1} power scales identically (the profile solves the equation, so
    both norms agree up to the solver's Nehari residual).  ``ball`` is the
    solution solve_ball(p).
    """
    return _rescaled_energy(radial_energy(ball, p), p, alpha)


def _rescaled_energy(base: EnergyReport, p: float,
                     alpha: float) -> EnergyReport:
    """The ball solution's report ``base`` rescaled to radius e^{-alpha p}."""
    factor = math.exp(4.0 * alpha * p / (p - 1.0))
    return EnergyReport.from_norms(base.grad_norm_sq * factor,
                                   base.lp1_norm_pow * factor, p)


# ---------------------------------------------------------------------------
# annulus solution (shooting)
# ---------------------------------------------------------------------------

def _shoot_annulus(p: float, t_a: float, t_b: float, slope: float,
                   rtol: float, dense: bool = False) -> Shot:
    """Shoot (u, u_t, du/ds, du_t/ds) in t from (0, slope, 0, 1) at t_a.

    The shot runs to t_b, recording zeros of u in ``t_events[0]``, unless
    it first reaches a trough (u_t = 0 and rising, after a zero), where it
    ends (see solve_ivp).
    """
    return solve_ivp(p, (t_a, t_b), [0.0, slope, 0.0, 1.0], rtol,
                     first_step=min(1e-3, (t_b - t_a) / 100),
                     dense_output=dense)


def _annulus_shot(p: float, a: float, b: float, slope: float, rtol: float):
    """Dense shot of the positive annulus solution, by safeguarded Newton.

    Newton's method on F(s) = u(log b; s) from ``slope``, with F'(s) from
    the variational equation, aims at u(b) = ENDPOINT_TOL * sup / 10:
    inside the acceptance band, and clear of the integrator's noise in F,
    which reaches a few 1e-12 * sup at p = 200.  A shot is accepted when
    it has no interior zero and |u(b)| < ENDPOINT_TOL * sup.  Shots with
    an interior zero, and shots that stop before r = b, are upper ends of
    the slope bracket, the others lower ends.  A Newton step that leaves
    the bracket, or follows a shot that stopped early, is replaced by
    geometric bisection, or by a factor-4 step while one end is missing.
    Once a shot has come within DENSE_RATIO, shots keep their dense
    output, so that the accepted one is usually not shot again.
    """
    t_a, t_b = math.log(a), math.log(b)
    lo, hi = 0.0, math.inf
    closest = math.inf  # smallest |u(b)| / sup of a shot reaching r = b
    s = slope
    for _ in range(MAX_SHOTS):
        sol = _shoot_annulus(p, t_a, t_b, s, rtol,
                             dense=closest < DENSE_RATIO)
        newton = math.nan
        if sol.status != 0:  # a trough, or a too-steep rise, before r = b
            hi = s
        else:
            u_end, sup = float(sol.y[0, -1]), float(np.max(np.abs(sol.y[0])))
            ratio = abs(u_end) / sup
            closest = min(closest, ratio)
            t_zero = sol.t_events[0]
            interior = t_zero.size and t_zero[0] < t_b - 1e-13
            if not interior and ratio < ENDPOINT_TOL:
                return sol if sol.sol is not None else _shoot_annulus(
                    p, t_a, t_b, s, rtol, dense=True)
            if interior:
                hi = s
            else:
                lo = s
            target = 0.1 * ENDPOINT_TOL * sup
            newton = s - (u_end - target) / float(sol.y[2, -1])
        if lo < newton < hi:
            s_next = newton
        elif 0.0 < lo and hi < math.inf:
            s_next = math.sqrt(lo * hi)
        else:
            s_next = 4.0 * lo if hi == math.inf else 0.25 * hi
        if not lo < s_next < hi or abs(s_next - s) <= 8e-16 * s:
            break
        s = s_next
    if lo == 0.0 or hi == math.inf:
        raise RadialSolveError(
            f"slope bracket failure for annulus p={p}, a={a}, b={b}")
    raise RadialSolveError(
        f"annulus shooting for p={p}, a={a}, b={b} closed its slope "
        f"bracket at u(b)/sup = {closest:.3e}, not below "
        f"ENDPOINT_TOL = {ENDPOINT_TOL:g}")


def solve_annulus(p: float, a: float, b: float,
                  slope: float | None = None) -> RadialProfile:
    """Positive radial solution on the annulus a < r < b, zero at both ends.

    Shoots from u(a) = 0 with the initial slope found by _annulus_shot,
    started from ``slope`` (default 1), e.g. the slope of a solution on a
    nearby annulus.  The returned profile records its slope.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if slope is not None and not 0 < slope < math.inf:
        raise ValueError("need a finite slope > 0")
    sol = _annulus_shot(p, a, b, 1.0 if slope is None else slope, RTOL)
    t_s = np.linspace(math.log(a), math.log(b), N_SAMPLES)
    y = sol.sol(t_s)
    u, ut = y[0].copy(), y[1]
    u[0] = 0.0
    u[-1] = 0.0  # snap residual endpoint value (< ENDPOINT_TOL * sup)
    r = np.exp(t_s)
    return RadialProfile(r, u, ut / r, a, b, p, slope=float(sol.y[1, 0]))


# ---------------------------------------------------------------------------
# explicit logarithmic test profile
# ---------------------------------------------------------------------------

def omega_test_function(p: float, alpha: float, b: float) -> RadialProfile:
    """Piecewise-logarithmic test profile on e^{-alpha p} < r < b.

    Rises as log r from the inner edge, falls as log(b/r) to the outer
    edge, normalized to peak value 1 at r = sqrt(b) e^{-alpha p / 2}; its
    Dirichlet energy is exactly 8 pi / (alpha p + log b).
    """
    if alpha <= 0 or b <= 0:
        raise ValueError("need alpha > 0 and b > 0")
    r_in = math.exp(-alpha * p)
    if r_in >= b:
        raise ValueError("domain ordering violated: e^{-alpha p} >= b")
    c = alpha * p + math.log(b)
    t_in, t_out = -alpha * p, math.log(b)
    t_break = 0.5 * (t_in + t_out)  # log of sqrt(b) e^{-alpha p/2}

    n1 = N_SAMPLES // 2
    n2 = N_SAMPLES - n1
    t1 = np.linspace(t_in, t_break, n1)
    t2 = np.linspace(t_break, t_out, n2)
    r1, r2 = np.exp(t1), np.exp(t2)
    u1 = 2.0 * (alpha * p + t1) / c
    u2 = 2.0 * (t_out - t2) / c
    du1 = 2.0 / (c * r1)
    du2 = -2.0 / (c * r2)

    r = np.concatenate([r1, r2])
    u = np.concatenate([u1, u2])
    du = np.concatenate([du1, du2])
    u[0] = 0.0
    u[-1] = 0.0
    return RadialProfile(r, u, du, r_in, b, p,
                         segments=((0, n1), (n1, N_SAMPLES)))


@dataclass(frozen=True)
class AlphaChoice:
    """An alpha with the two profiles of the energy budget there.

    ``ball`` is the solution solve_ball(p), and ``annulus`` the solution
    on (e^{-alpha p}, 1); its ``slope`` can start a solve on a nearby
    annulus.
    """

    alpha: float
    ball: RadialProfile
    annulus: RadialProfile


def profiles_at(p: float, alpha: float, ball: RadialProfile | None = None,
                slope: float | None = None) -> AlphaChoice:
    """The ball and annulus solutions of the energy budget at ``alpha``.

    ``ball`` is the solution solve_ball(p), solved here when not given;
    ``slope`` starts the annulus shooting (see solve_annulus).
    """
    if ball is None:
        ball = solve_ball(p)
    return AlphaChoice(alpha, ball,
                       solve_annulus(p, math.exp(-alpha * p), 1.0, slope))


def _predict_slope(choices: dict, alpha: float) -> float | None:
    """Secant prediction of log slope at alpha from the annulus slopes of
    the two solved alphas nearest to it (the one slope if only one is
    solved)."""
    near = sorted(choices, key=lambda a: abs(a - alpha))[:2]
    slopes = [choices[a].annulus.slope for a in near]
    if len(near) < 2:
        return slopes[0] if near else None
    (a1, a2), (l1, l2) = near, map(math.log, slopes)
    return math.exp(l1 + (alpha - a1) * (l2 - l1) / (a2 - a1))


def optimal_alpha(p: float) -> AlphaChoice:
    """Alpha minimizing the measured two-profile energy sum at this p,
    with the profiles solved there.

    Minimizes p E_p(annulus solution on (e^{-alpha p}, 1)) plus
    p E_p(scaled ball solution on B_{e^{-alpha p}}).  As p grows the
    minimizer approaches the stationary point of the limit profile
    e^{2 alpha - 1}/alpha + e^{4 alpha}; at moderate p the two differ
    enough to matter for energy budgets.  Each annulus solve starts from
    the slope predicted by the alphas already solved.
    """
    from scipy.optimize import minimize_scalar

    ball = solve_ball(p)
    ball_rep = radial_energy(ball, p)
    choices = {}  # every evaluated alpha -> its AlphaChoice

    def total(alpha):
        choice = choices[alpha] = profiles_at(
            p, float(alpha), ball, _predict_slope(choices, alpha))
        return p * (radial_energy(choice.annulus, p).energy
                    + _rescaled_energy(ball_rep, p, alpha).energy)

    res = minimize_scalar(total, bounds=ALPHA_BOUNDS, method="bounded",
                          options={"xatol": ALPHA_XATOL})
    if not res.success:
        raise RadialSolveError(f"alpha optimization failed: {res.message}")
    return choices[res.x]


def omega_energy_closed_form(p: float, alpha: float, b: float) -> float:
    """Exact Dirichlet energy 8 pi / (alpha p + log b) of the test profile."""
    return 8.0 * math.pi / (alpha * p + math.log(b))
