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
iteration.

optimal_alpha chooses the alpha of the two-profile energy budget
T(alpha) = p (E_p(annulus on (e^{-alpha p}, 1)) + E_p(ball on
B_{e^{-alpha p}})) as the zero of T'(alpha).  Hadamard's formula for the
moving inner circle gives T' exactly from the annulus solution's initial
slope s = u_t(log e^{-alpha p}):

    T'(alpha) = p (-pi p s^2 + 4p/(p-1) E_p(ball on B_{e^{-alpha p}})),

so each annulus solve of the search brings its derivative with it.  The
search warm-starts each solve from the slopes it has already found.

Every shot, of the ball or of an annulus, is one call of solve_ivp below:
scipy's DOP853 method (its tableau, written out here as constants, its
step control, event location and dense output) on Python floats for the
four lanes (u, u_t, du/ds, du_t/ds).  It is not scipy.integrate.solve_ivp
because at four lanes that spends most of each step in small-array numpy
calls, event bookkeeping and OdeSolution rather than in arithmetic; the
float kernel takes about a quarter of the time per shot.  Its steps are
not bitwise scipy's (summation order differs), but its profiles agree
with scipy's to roundoff.

The rest of the numerics is in the package too, so that the radial layer
imports numpy only: energy.brentq (Brent's root finder) for the event
roots and the alpha search, simpson (the composite Simpson rule) for the
energies and Pchip (the PCHIP interpolant) for profile values.  Each
takes the steps of its scipy counterpart, and the tests hold them to
scipy's results bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import BRENT_RTOL, FLOAT_RANGE, EnergyReport, brentq, minimize_f

ENDPOINT_TOL = 1e-10
ALPHA_BOUNDS = (0.05, 0.9)  # the interval optimal_alpha searches
ALPHA_XATOL = 1e-5  # optimal_alpha's absolute tolerance in alpha
# optimal_alpha starts at alpha_bar + ALPHA_START / p: p (alpha* - alpha_bar)
# is 0.64 to 0.74 for 1.5 <= p <= 20, and grows slowly beyond
ALPHA_START = 0.65
ALPHA_STEP = 0.01  # optimal_alpha's first bracketing step, then doubled
MAX_SHOTS = 100  # per annulus solve
DENSE_RATIO = 1e-4  # |u(b)| / sup below which Newton is about to converge
N_SAMPLES = 4096  # samples of every solved or explicit profile
RTOL = 1e-11  # relative tolerance of every radial integration
ATOL = 1e-14  # absolute tolerance on (u, u_t) of every radial integration
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # e^x is finite up to here
# log of the largest rescaled amplitude: twice it, squared, is still a float
_LOG_AMPLITUDE_MAX = 0.5 * _LOG_FLOAT_MAX - math.log(2.0)


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
        """PCHIP interpolated values; zero outside [r_in, r_out]."""
        if self._interp is None:
            # piecewise profiles repeat the break radius at segment joints
            keep = np.concatenate([[True], np.diff(self.r) > 0.0])
            self._interp = Pchip(self.r[keep], self.u[keep])
        return self._interp(r)

    def scaled(self, lam: float) -> "RadialProfile":
        """Similarity rescaling u_lam(r) = lam^{2/(p-1)} u(lam r)."""
        amp = _amplitude(lam, self.p)
        return RadialProfile(self.r / lam, amp * self.u, amp * lam * self.du,
                             self.r_in / lam, self.r_out / lam, self.p,
                             self.segments)


class Pchip:
    """The PCHIP interpolant of (x, y), x strictly increasing, at least
    three points; zero outside [x[0], x[-1]].

    Fritsch & Carlson's monotone piecewise cubic (SIAM J. Numer. Anal. 17
    (1980) 238): at an interior node the weighted harmonic mean of the
    two secant slopes, or 0 where they differ in sign or one is 0; at the
    ends the one-sided three-point slope, made shape-preserving.  The
    coefficients and their evaluation are those of scipy's
    PchipInterpolator(x, y, extrapolate=False), term for term.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.zeros_like(y)
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / mean)
        d[0] = self._end_slope(h[0], h[1], m[0], m[1])
        d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        # the cubic on [x_i, x_i+1] is c0 s^3 + c1 s^2 + c2 s + c3
        self.x = x
        self.c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    @staticmethod
    def _end_slope(h0, h1, m0, m1) -> float:
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, r) -> np.ndarray:
        x = self.x
        r = np.asarray(r, dtype=float)
        inside = (x[0] <= r) & (r <= x[-1])
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(x) - 2)
        s = np.where(inside, r - x[i], 0.0)
        c0, c1, c2, c3 = (c[i] for c in self.c)
        s2 = s * s
        return np.where(inside, c3 + c2 * s + c1 * s2 + c0 * (s2 * s), 0.0)


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

def _divide(a, b):
    """a / b, and 0 where b is 0."""
    return np.true_divide(a, b, out=np.zeros_like(b), where=b != 0)


def simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson rule for samples y at the points x (at least three).

    Simpson's rule on each pair of intervals, of any widths; with an even
    number of points the last interval is integrated apart, by the
    parabola through the last three points (Cartwright's correction).
    The sums are those of scipy.integrate.simpson(y, x=x) (scipy >= 1.11),
    term for term.
    """
    n = len(y)
    stop = n - 3 if n % 2 == 0 else n - 2
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod = h0 + h1, h0 * h1
    ratio = _divide(h0, h1)
    result = np.sum(hsum / 6.0 * (
        y[0:stop:2] * (2.0 - _divide(1.0, ratio))
        + y[1:stop + 1:2] * (hsum * _divide(hsum, hprod))
        + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        h0, h1 = h[-2:-1].reshape(()), h[-1:].reshape(())
        alpha = _divide(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
        beta = _divide(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
        eta = _divide(h1 ** 3, 6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def radial_energy(profile: RadialProfile) -> EnergyReport:
    """Energy report at the profile's p from 1D quadrature (Simpson per
    smooth segment), under FLOAT_RANGE; a norm past the float range raises
    RadialSolveError."""
    p = profile.p
    grad = lp1 = 0.0
    with np.errstate(**FLOAT_RANGE):
        for a, b in profile.segments:
            r, u, du = profile.r[a:b], profile.u[a:b], profile.du[a:b]
            if len(r) < 3:
                continue
            grad += 2.0 * math.pi * simpson(du * du * r, x=r)
            lp1 += 2.0 * math.pi * simpson(np.abs(u) ** (p + 1.0) * r, x=r)
    if not (math.isfinite(grad) and math.isfinite(lp1)):
        raise RadialSolveError(
            f"the energy of the radial profile on ({profile.r_in:.4g}, "
            f"{profile.r_out:.4g}) at p = {p:g} passes the float range")
    return EnergyReport.from_norms(grad, lp1, p)


# ---------------------------------------------------------------------------
# the shot: scipy's DOP853 on Python floats
# ---------------------------------------------------------------------------

# DOP853's tableau (Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I, 1993), as scipy.integrate.DOP853 holds it; only the nonzero
# entries, as (index, coefficient) pairs.  Stage s (1 to 11) is
# (c_s, the row a_s), and _EXTRA_STAGES the three stages of dense output.
_STAGES = (
    (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726, ((0, 0.2413651341592667), (2, -0.8845494793282861),
                          (3, 0.924834003261792))),
    (0.3333333333333333, ((0, 0.037037037037037035), (3, 0.17082860872947386),
                          (4, 0.12546768756682242))),
    (0.25, ((0, 0.037109375), (3, 0.17025221101954405),
            (4, 0.06021653898045596), (5, -0.017578125))),
    (0.3076923076923077, ((0, 0.03709200011850479), (3, 0.17038392571223998),
                          (4, 0.10726203044637328),
                          (5, -0.015319437748624402),
                          (6, 0.008273789163814023))),
    (0.6512820512820513, ((0, 0.6241109587160757), (3, -3.3608926294469414),
                          (4, -0.868219346841726), (5, 27.59209969944671),
                          (6, 20.154067550477894), (7, -43.48988418106996))),
    (0.6, ((0, 0.47766253643826434), (3, -2.4881146199716677),
           (4, -0.590290826836843), (5, 21.230051448181193),
           (6, 15.279233632882423), (7, -33.28821096898486),
           (8, -0.020331201708508627))),
    (0.8571428571428571, ((0, -0.9371424300859873), (3, 5.186372428844064),
                          (4, 1.0914373489967295), (5, -8.149787010746927),
                          (6, -18.52006565999696), (7, 22.739487099350505),
                          (8, 2.4936055526796523), (9, -3.0467644718982196))),
    (1.0, ((0, 2.273310147516538), (3, -10.53449546673725),
           (4, -2.0008720582248625), (5, -17.9589318631188),
           (6, 27.94888452941996), (7, -2.8589982771350235),
           (8, -8.87285693353063), (9, 12.360567175794303),
           (10, 0.6433927460157636))),
)
_EXTRA_STAGES = (
    (0.1, ((0, 0.056167502283047954), (6, 0.25350021021662483),
           (7, -0.2462390374708025), (8, -0.12419142326381637),
           (9, 0.15329179827876568), (10, 0.00820105229563469),
           (11, 0.007567897660545699), (12, -0.008298))),
    (0.2, ((0, 0.03183464816350214), (5, 0.028300909672366776),
           (6, 0.053541988307438566), (7, -0.05492374857139099),
           (10, -0.00010834732869724932), (11, 0.0003825710908356584),
           (12, -0.00034046500868740456), (13, 0.1413124436746325))),
    (0.7777777777777778, ((0, -0.42889630158379194), (5, -4.697621415361164),
                          (6, 7.683421196062599), (7, 4.06898981839711),
                          (8, 0.3567271874552811),
                          (12, -0.0013990241651590145),
                          (13, 2.9475147891527724), (14, -9.15095847217987))),
)
# the weights of the 8th-order solution, and of the 3rd- and 5th-order
# error estimates (index 12 is f(t + h, y_new))
_B = ((0, 0.054293734116568765), (5, 4.450312892752409),
      (6, 1.8915178993145003), (7, -5.801203960010585),
      (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409),
       (6, 1.8915178993145003), (7, -5.801203960010585),
       (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044),
       (6, -0.4957589496572502), (7, 1.6643771824549864),
       (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
# the last four rows of the dense-output coefficients, over all 16 stages
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777),
     (6, -3.0689499459498917), (7, 2.38466765651207), (8, 2.117034582445028),
     (9, -0.871391583777973), (10, 2.2404374302607883),
     (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356),
     (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817),
     (6, 165.20045171727028), (7, -374.5467547226902),
     (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229),
     (12, 15.697238121770845), (13, -31.139403219565178),
     (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518),
     (6, -189.17813819516758), (7, 527.8081592054236),
     (8, -11.57390253995963), (9, 6.8812326946963), (10, -1.0006050966910838),
     (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716),
     (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643),
     (6, -231.5293791760455), (7, 357.6391179106141), (8, 93.40532418362432),
     (9, -37.45832313645163), (10, 104.0996495089623),
     (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544),
     (15, -149.72683625798564)),
)


def _dense(pairs, n: int) -> list:
    """The tableau row of length n with the nonzero entries ``pairs``."""
    row = [0.0] * n
    for j, a in pairs:
        row[j] = a
    return row


# _D as the 4 x 16 matrix DenseShot applies to a whole shot's stages
_D_MATRIX = np.array([_dense(row, 16) for row in _D])

# scipy's step control
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)
_EVENT_TOL = BRENT_RTOL  # energy.brentq's xtol and rtol at the event roots
_FSAL = 12  # row of f(t + h, y_new) among a step's stages


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
            hc[:, None] * (_D_MATRIX @ K)], axis=1)

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


def solve_ivp(p: float, t_span, y0, first_step=None,
              dense_output: bool = False) -> Shot:
    """Integrate (u, u_t, du/ds, du_t/ds) over t_span from y0 by DOP853.

    DOP853 (the tableau above, scipy's step-size control and dense output)
    on Python floats: at four lanes scipy's small-array numpy calls cost far
    more than the arithmetic.  RTOL and ATOL are divided by sqrt(2) and the
    derivative lanes get atol 1e300, so (u, u_t) have exactly the step
    control of a two-lane integration and the derivative does not drive
    it.  Zeros of u (falling) are recorded in ``t_events[0]``; a trough
    (u_t = 0, rising) is recorded in ``t_events[1]`` and ends the shot.
    Each is located by energy.brentq on the step's interpolant, whose
    three extra stages are computed only on steps with an event and on
    dense shots.  ``first_step`` defaults to Hairer's rule.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    rhs = _shot_rhs(p)
    tol = 1.0 / math.sqrt(2.0)
    rtol = RTOL * tol
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
    sol = solve_ivp(p, (t_start, t_end), y0, dense_output=True)
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
    try:
        lam = math.exp(t_zero)
    except OverflowError:  # p past about 2849
        raise RadialSolveError(
            f"the first zero r0 = exp({t_zero:.6g}) of the unit-amplitude "
            f"ball solution at p = {p:g} passes the float range") from None
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
    return radial_energy(solve_ball(p))


def ball_radius(p: float, alpha: float) -> float:
    """e^{-alpha p}, the radius of the scaled ball and the inner radius of
    the annulus, under the float rule for alpha: RadialSolveError unless
    it lies in (0, 1) and the rescaling e^{alpha p} is finite."""
    if not (0.0 < alpha * p <= _LOG_FLOAT_MAX
            and math.exp(-alpha * p) < 1.0):
        raise RadialSolveError(f"alpha*p = {alpha * p:g} at p = {p:g}: the "
                               f"ball radius e^(-alpha*p) must lie in (0, 1) "
                               f"and e^(alpha*p) be a finite float")
    return math.exp(-alpha * p)


def build_ball_solution_scaled(p: float, alpha: float,
                               ball: RadialProfile) -> RadialProfile:
    """u_{p,2,alpha}: the ball solution rescaled to radius e^{-alpha p}.

    Exact similarity rescaling of ``ball``, the solution solve_ball(p);
    no re-integration; RadialSolveError past the float rule (ball_radius).
    """
    ball_radius(p, alpha)
    return ball.scaled(math.exp(alpha * p))


def _rescaled_energy(base: EnergyReport, p: float,
                     alpha: float) -> EnergyReport:
    """``base``, the ball solution's report, rescaled to radius e^{-alpha p}
    (u_{p,2,alpha}'s): both norms gain the factor e^{4 alpha p/(p-1)}."""
    factor = math.exp(4.0 * alpha * p / (p - 1.0))
    return EnergyReport.from_norms(base.grad_norm_sq * factor,
                                   base.lp1_norm_pow * factor, p)


# ---------------------------------------------------------------------------
# annulus solution (shooting)
# ---------------------------------------------------------------------------

def _shoot_annulus(p: float, t_a: float, t_b: float, slope: float,
                   dense: bool = False) -> Shot:
    """Shoot (u, u_t, du/ds, du_t/ds) in t from (0, slope, 0, 1) at t_a.

    The shot runs to t_b, recording zeros of u in ``t_events[0]``, unless
    it first reaches a trough (u_t = 0 and rising, after a zero), where it
    ends (see solve_ivp).
    """
    return solve_ivp(p, (t_a, t_b), [0.0, slope, 0.0, 1.0],
                     first_step=min(1e-3, (t_b - t_a) / 100),
                     dense_output=dense)


def _annulus_shot(p: float, a: float, b: float, slope: float):
    """Dense shot of the positive annulus solution, by safeguarded Newton.

    Newton's method on F(s) = u(log b; s) from ``slope``, with F'(s) from
    the variational equation, aims at u(b) = ENDPOINT_TOL * sup / 10:
    inside the acceptance band, and clear of the integrator's noise in F,
    which reaches a few 1e-12 * sup at p = 200.  A shot is accepted when
    it has no interior zero and |u(b)| < ENDPOINT_TOL * sup.  Shots with
    an interior zero, and shots that stop before r = b, are upper ends of
    the slope bracket, the others lower ends.  A Newton step that leaves
    the bracket, or follows a shot that stopped early, is replaced by
    geometric bisection, or while one end is missing by a step down by a
    factor 4 or up by a factor that starts at 4 and squares after each
    use (a slope can be astronomically large near p = 1).
    Once a shot has come within DENSE_RATIO, shots keep their dense
    output, so that the accepted one is usually not shot again.
    """
    t_a, t_b = math.log(a), math.log(b)
    lo, hi = 0.0, math.inf
    closest = math.inf  # smallest |u(b)| / sup of a shot reaching r = b
    s, grow = slope, 4.0
    for _ in range(MAX_SHOTS):
        sol = _shoot_annulus(p, t_a, t_b, s, dense=closest < DENSE_RATIO)
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
                    p, t_a, t_b, s, dense=True)
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
        elif hi == math.inf:
            s_next, grow = grow * lo, grow * grow
        else:
            s_next = 0.25 * hi
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
    sol = _annulus_shot(p, a, b, 1.0 if slope is None else slope)
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

    ``ball`` is the solution solve_ball(p), ``ball_energy`` its energy
    report, and ``annulus`` the solution on (e^{-alpha p}, 1); its
    ``slope`` can start a solve on a nearby annulus.  ``derivative`` is
    the budget's T'(alpha) there (see budget_derivative): at the alpha
    optimal_alpha returns it is the stationarity residual.  ``solves``
    counts the alphas at which profiles were solved to make this choice.
    """

    alpha: float
    ball: RadialProfile
    ball_energy: EnergyReport
    annulus: RadialProfile
    derivative: float
    solves: int = 1


def budget_derivative(p: float, alpha: float, slope: float,
                      ball_energy: EnergyReport) -> float:
    """T'(alpha) of the budget T = p (E_p(annulus) + E_p(scaled ball)).

    The annulus is the solution on (a, 1), a = e^{-alpha p}, with initial
    slope ``slope`` = u_t(log a), and the scaled ball the solution on
    B_a, whose energy is ``ball_energy`` (the ball solution's report)
    times e^{4 alpha p/(p-1)}.  By Hadamard's formula for the moving
    inner circle, dE_p(annulus)/da = pi a u_r(a)^2 = pi slope^2 / a, and
    da/dalpha = -p a, so

        T'(alpha) = p (-pi p slope^2 + 4p/(p-1) E_p(scaled ball)).
    """
    e_ball = _rescaled_energy(ball_energy, p, alpha).energy
    return p * (-math.pi * p * slope * slope + 4.0 * p / (p - 1.0) * e_ball)


def _profiles(p: float, alpha: float, ball: RadialProfile,
              ball_energy: EnergyReport, slope: float | None) -> AlphaChoice:
    """profiles_at from the ball solution ``ball`` and its energy report;
    ``slope`` starts the annulus shooting (see solve_annulus)."""
    annulus = solve_annulus(p, ball_radius(p, alpha), 1.0, slope)
    return AlphaChoice(alpha, ball, ball_energy, annulus, budget_derivative(
        p, alpha, annulus.slope, ball_energy))


def profiles_at(p: float, alpha: float) -> AlphaChoice:
    """The ball and annulus solutions of the energy budget at ``alpha``."""
    ball = solve_ball(p)
    return _profiles(p, alpha, ball, radial_energy(ball), None)


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
    """The zero of the budget's alpha-derivative at this p, with the
    profiles solved there.

    The budget is T(alpha) = p E_p(annulus solution on (e^{-alpha p}, 1))
    + p E_p(scaled ball solution on B_{e^{-alpha p}}), and its exact
    derivative comes with each annulus solve (Hadamard's formula, see
    budget_derivative):

        T'(alpha) = p (-pi p s^2 + 4p/(p-1) E_p(scaled ball)),

    s the annulus's initial slope u_t(log e^{-alpha p}).  The search
    starts at alpha_bar + ALPHA_START / p (alpha_bar the minimizer of the
    limit profile e^{2 alpha - 1}/alpha + e^{4 alpha}, which the zero
    approaches as p grows), steps downhill by ALPHA_STEP, doubling, until
    T' changes sign inside ALPHA_BOUNDS, and closes the bracket by
    energy.brentq to ALPHA_XATOL; its root is one of the solved alphas.
    Each annulus solve starts from the slope predicted by the alphas
    already solved.
    """
    ball = solve_ball(p)
    ball_energy = radial_energy(ball)
    choices = {}  # every solved alpha -> its AlphaChoice

    def derivative(alpha: float) -> float:
        if alpha not in choices:
            choices[alpha] = _profiles(p, alpha, ball, ball_energy,
                                       _predict_slope(choices, alpha))
        return choices[alpha].derivative

    lo, hi = ALPHA_BOUNDS
    a = min(max(minimize_f().alpha_bar + ALPHA_START / p, lo), hi)
    t_a = derivative(a)
    step = math.copysign(ALPHA_STEP, -t_a)
    while True:
        b = min(max(a + step, lo), hi)
        if b == a:
            raise RadialSolveError(
                f"the budget's alpha-derivative keeps its sign ({t_a:.3e} "
                f"at alpha = {a:g}) up to the end of ALPHA_BOUNDS = "
                f"{ALPHA_BOUNDS} at p = {p:g}")
        t_b = derivative(b)
        if t_a * t_b <= 0.0:
            break
        a, t_a, step = b, t_b, 2.0 * step
    alpha = brentq(derivative, min(a, b), max(a, b), xtol=ALPHA_XATOL)
    return dataclasses.replace(choices[alpha], solves=len(choices))


def omega_energy_closed_form(p: float, alpha: float, b: float) -> float:
    """Exact Dirichlet energy 8 pi / (alpha p + log b) of the test profile."""
    return 8.0 * math.pi / (alpha * p + math.log(b))
