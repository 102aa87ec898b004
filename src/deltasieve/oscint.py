"""Cubic-phase oscillatory integrals and their stationary-phase main terms.

    I(alpha, beta)  = int Gammahat(z) e(-beta z^3 - alpha z) dz
    I1(alpha, beta) = dI/ds under the parameter maps (s = l1)
    G, G1           = closed-form stationary main terms (zero for alpha >= 0)
    Omega           = I - G

The weight Gammahat is the Gaussian exp(-pi z^2), so the integrand is exp
of a cubic polynomial.  The shift z = w + i/(6 beta) removes its quadratic
term and leaves the Airy integral (DLMF 9.5.1):

    I(alpha, beta) = 2 pi c exp(E) Ai(x),   c = (6 pi beta)^(-1/3),
    E = pi/(54 beta^2) + pi alpha/(3 beta),   x = c (2 pi alpha + pi/(6 beta)).

I1 follows by the chain rule with Ai'.  Both are evaluated with mpmath,
on routes where it converges at once (`_ai`; mpmath tries an asymptotic
series first, which reaches the working digits only past the edge
(4/3) |x|^(3/2) = prec ln 2 + 23, |x| = 14.5 at 21 digits):

- below -edge, mpmath's asymptotic 2F0 series of Ai and Ai' at the
  rotated point |x| e^(i pi/3), in real form (DLMF 9.7.9-9.7.10): one
  real cosine and sine of the phase, no complex ``airyai``;
- from -edge to 4, mpmath's Maclaurin series at x itself
  (``force_series``);
- from 4 to edge, the Maclaurin pair of Ai and Ai' in 0F1 form
  (DLMF 9.4.1-9.4.2), whose terms cancel to e^(-2 zeta) of their size,
  zeta = 2 x^(3/2) / 3, so they carry (4/3) x^(3/2) / ln 2 + 16 guard
  bits;
- above edge, mpmath's ``airyai`` at x, on its asymptotic series.

The working digits, 20 + log10(1 + |E| + |x|^(3/2)), grow because exp(E)
cancels the decay of Ai(x) (about 37 digits at beta = 1e-9).  They come
from a float bound in logarithms, never below the exact count.

For x > 0, 0 < Ai(x) < exp(-zeta) / (2 sqrt(pi) x^(1/4)) (DLMF 9.7.15), so
an I whose bound lies an e below 2^-1075 is +0.0 without Ai.  The bound is
tested in floats before any mpmath set-up, and trusted only where it clears
that cut by far more than its rounding (`_rounds_to_zero`): at beta = 1e-9,
E and zeta are both about 5.8e16.  Elsewhere I is evaluated in full, which
gives the same +0.0 wherever the bound lies below the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .weights import gauss

_LN10 = math.log(10)
_LN2 = math.log(2)
# one e below log(2^-1075): a positive double under 2^-1075 rounds to +0.0
_LOG_ZERO = -1075 * math.log(2) - 1


@dataclass(frozen=True)
class OscillatoryProblem:
    """The finite point (alpha, beta) of I and I1, with beta > 0.

    ``tolerance`` states the absolute accuracy the caller accepts.  No
    evaluation reads it: the closed form is accurate to ~1e-15 |I|.  The
    field and its validation stay because the benchmark's workloads build
    problems with it; they go with the next change to the benchmark.
    """

    alpha: float
    beta: float
    tolerance: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.tolerance <= 1e-6:
            raise ValueError("tolerance must lie in (0, 1e-6]")


def _airy_args(a, b):
    """(c, E, x) of the closed form at the current mpmath precision."""
    c = 1 / mp.cbrt(6 * mp.pi * b)
    E = mp.pi / (54 * b * b) + mp.pi * a / (3 * b)
    return c, E, c * (2 * mp.pi * a + mp.pi / (6 * b))


def _log_sum(*logs: float) -> float:
    """log(sum exp(l)) over ``logs``, finite whenever the largest is."""
    m = max(logs)
    return m + math.log(sum(math.exp(l - m) for l in logs))


def _digits(alpha: float, beta: float, s: float | None) -> int:
    """Working digits: 20 + log10(1 + |E| + |x|^(3/2)), and for I1 (s set)
    another log10(1 + |pa| + |px|).

    Each of |E|, |x|, |pa|, |px| is bounded by the sum of its terms' moduli,
    in logarithms, so the count is never below the exact one and is finite
    for every beta > 0 (beta^2 may underflow).  1e-9 absorbs the rounding
    of the float logarithms.
    """
    lb = math.log(beta)
    la = math.log(abs(alpha)) if alpha else -math.inf
    lc = -(math.log(6 * math.pi) + lb) / 3
    lE = _log_sum(math.log(math.pi / 54) - 2 * lb, math.log(math.pi / 3) + la - lb)
    lx = lc + _log_sum(math.log(2 * math.pi) + la, math.log(math.pi / 6) - lb)
    dps = 20 + int(_log_sum(0.0, lE, 1.5 * lx) / _LN10 + 1e-9)
    if s is None:
        return dps
    lpa = _log_sum(
        math.log(4 / 3), math.log(4 * math.pi / 27) - 2 * lb, math.log(2 * math.pi / 3) + la - lb
    )
    # |px| <= 4|x|/3 + 2 pi c/(3 beta) + 4 pi |alpha| c, with |x| bounded as above
    lpx = lc + _log_sum(math.log(20 * math.pi / 3) + la, math.log(8 * math.pi / 9) - lb)
    return dps + int(_log_sum(0.0, lpa, lpx) / _LN10 + 1e-9)


# (precision, Ai(0), Ai'(0)) at the highest precision asked for so far
_AI_AT_0 = [0, None, None]


def _ai_at_0():
    """Ai(0) = 1 / (3^(2/3) Gamma(2/3)) and Ai'(0) = -1 / (3^(1/3) Gamma(1/3))
    (DLMF 9.2.3-9.2.4) at the current precision, rounded from the pair kept
    at the highest precision asked for so far, as mpmath keeps its own."""
    if _AI_AT_0[0] < mp.prec:
        _AI_AT_0[:] = (
            mp.prec,
            1 / (mp.cbrt(9) * mp.gamma(mp.mpf(2) / 3)),
            -1 / (mp.cbrt(3) * mp.gamma(mp.mpf(1) / 3)),
        )
    return +_AI_AT_0[1], +_AI_AT_0[2]


def _ai(x, n: int):
    """Ai(x) (n = 0) or Ai'(x) (n = 1) on four contiguous intervals of x.

    mpmath tries an asymptotic series first wherever it may converge: the
    2F0 of Ai for real part > 4 and hyp0f1's own for |x| > 10.5.  Its terms
    fall to about e^(-(4/3) |x|^(3/2)) at their least, so it reaches the
    working precision only past the edge (4/3) |x|^(3/2) = prec ln 2 + 23
    (the 23 measured from 17 to 60 digits; |x| = 14.5 at 21 digits).  Short
    of the edge the attempt fails and mpmath falls back to a slower route,
    so:

    - below -edge, the connection formula Ai(x) = 2 Re[w Ai(z)],
      w = e^(i pi/3), z = |x| w (DLMF 9.2.11), with mpmath's asymptotic
      series of Ai(z), which converges there.  As z^(3/2) = i t,
      t = |x|^(3/2), it is real in form (DLMF 9.7.9-9.7.10): with
      zeta = 2 t / 3 and r = 3i / (4 t),
          Ai  = Re[e^(-i(zeta - pi/4)) 2F0(1/6, 5/6; r)] / (sqrt(pi) |x|^(1/4)),
          Ai' = |x|^(1/4) Re[e^(-i(zeta - 3 pi/4)) 2F0(-1/6, 7/6; r)] / sqrt(pi),
      the phase taken with 1.5 log2 |x| more bits, as mpmath takes it,
      since zeta amplifies its rounding;
    - from -edge to 4, Ai at x itself is summed as its Maclaurin series
      (``force_series``);
    - from 4 to edge, Ai and Ai' come from their Maclaurin pair in 0F1 form
      (DLMF 9.4.1-9.4.2),
          Ai  = Ai(0) 0F1(;2/3;x^3/9) + Ai'(0) x 0F1(;4/3;x^3/9),
          Ai' = Ai(0) (x^2/2) 0F1(;5/3;x^3/9) + Ai'(0) 0F1(;1/3;x^3/9),
      whose two terms cancel to e^(-2 zeta) of their size, zeta =
      (2/3) x^(3/2), so they are summed with (4/3) x^(3/2) / ln 2 + 16
      guard bits;
    - above edge, mpmath's ``airyai`` at x, on its asymptotic series.
    """
    edge = (0.75 * (mp.prec * _LN2 + 23)) ** (2 / 3)
    if x < -edge:
        with mp.extraprec(int(1.5 * mp.mag(x))):
            y = mp.sqrt(-x)
            t = -x * y
            c, s = mp.cos_sin(2 * t / 3 - (2 * n + 1) * mp.pi / 4)
        f = mp.hyp2f0((1 - 2 * n, 6), (5 + 2 * n, 6), mp.mpc(0, 3 / (4 * t)), force_series=True)
        return (c * f.real + s * f.imag) * (mp.sqrt(y / mp.pi) if n else 1 / mp.sqrt(y * mp.pi))
    if x <= 4:
        return mp.airyai(x, derivative=n, force_series=True)
    if x <= edge:
        xf = float(x)
        with mp.workprec(mp.prec + int(4 * xf * math.sqrt(xf) / (3 * _LN2)) + 16):
            t = x**3 / 9
            ai0, ai1 = _ai_at_0()
            if n == 0:
                f = mp.hyp0f1((2, 3), t, force_series=True)
                g = x * mp.hyp0f1((4, 3), t, force_series=True)
            else:
                f = x * x / 2 * mp.hyp0f1((5, 3), t, force_series=True)
                g = mp.hyp0f1((1, 3), t, force_series=True)
            return ai0 * f + ai1 * g
    return mp.airyai(x, derivative=n)


def _rounds_to_zero(alpha: float, beta: float) -> bool:
    """Whether I's bound sqrt(pi) c e^(E - zeta) / x^(1/4) (DLMF 9.7.15)
    lies below e^_LOG_ZERO, tested in floats.

    The float logarithm of the bound is off by a few ulps of the sizes of
    its terms, and x by a few ulps of c (2 pi |alpha| + pi/(6 beta)), which
    log(x) and zeta amplify by that size over x.  True only where the
    logarithm lies below _LOG_ZERO by 1e-12 times those sizes, far beyond
    its rounding; False within 1e-3 of that size of x = 0, for x < 0, for
    beta outside (1e-100, 1e100) and for any non-finite float (a nan
    compares False).
    """
    if not 1e-100 < beta < 1e100:
        return False
    c = (6 * math.pi * beta) ** (-1 / 3)
    xa, xb = 2 * math.pi * alpha, math.pi / (6 * beta)
    x, xs = c * (xa + xb), c * (abs(xa) + xb)
    if not x > 1e-3 * xs:
        return False
    e1, e2 = math.pi / (54 * beta * beta), math.pi * alpha / (3 * beta)
    zeta = 2 * x * math.sqrt(x) / 3
    lc, lx = math.log(math.sqrt(math.pi) * c), math.log(x) / 4
    log_bound = lc + e1 + e2 - zeta - lx
    margin = 1e-12 * (e1 + abs(e2) + (zeta + 1) * xs / x + abs(lc) + abs(lx))
    return log_bound < _LOG_ZERO - margin


def _airy_eval(alpha: float, beta: float, s: float | None) -> complex:
    """I (s None) or I1 at s through Ai and Ai', to ~15 significant digits.

    Relative errors in E and x are amplified by |E| and by |x|^(3/2) (the
    exponent of Ai's decay or the phase of its oscillation), and I1 loses
    about log10(|pa| + |px|) more to the cancellation between its two
    terms, so 20 digits are kept beyond both (`_digits`).  An I whose bound
    rounds to 0 in floats (`_rounds_to_zero`) returns before any mpmath
    set-up.
    """
    if s is None and _rounds_to_zero(alpha, beta):
        return 0j
    with mp.workdps(_digits(alpha, beta, s)):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        c, E, x = _airy_args(a, b)
        scale = 2 * mp.pi * c * mp.exp(E)
        if s is None:
            return complex(float(scale * _ai(x, 0)))
        # d/ds = (4 beta/s) d/dbeta + (2 alpha/s) d/dalpha of log(c) + E
        # (the Ai factor) and of x (the Ai' factor)
        pa = -mp.mpf(4) / 3 - 4 * mp.pi / (27 * b * b) - 2 * mp.pi * a / (3 * b)
        px = -4 * x / 3 - 2 * mp.pi * c / (3 * b) + 4 * mp.pi * a * c
        v = scale * (pa * _ai(x, 0) + px * _ai(x, 1)) / s
        return complex(float(v))


def I_eval(problem: OscillatoryProblem) -> complex:
    """I(alpha, beta) in closed form through the Airy function."""
    return _airy_eval(problem.alpha, problem.beta, None)


def I1_eval(problem: OscillatoryProblem, s: float) -> complex:
    """I1(alpha, beta) = dI/ds, with alpha ~ s^2 and beta ~ s^4 under the
    parameter maps: (4 beta / s) dI/dbeta + (2 alpha / s) dI/dalpha."""
    if s <= 0:
        raise ValueError("s must be positive")
    return _airy_eval(problem.alpha, problem.beta, s)


def stationary_point(alpha: float, beta: float) -> float:
    """Positive stationary point |alpha|^(1/2) / (3 beta)^(1/2) (0 if alpha >= 0)."""
    if alpha >= 0:
        return 0.0
    return math.sqrt(-alpha / (3.0 * beta))


def _stationary_phase(alpha: float, beta: float) -> tuple[float, complex]:
    """(z0, e(1/8 - phi0)): the stationary point and its phase (`G_eval`)."""
    z0 = stationary_point(alpha, beta)
    phi0 = 2.0 * abs(alpha) ** 1.5 / (3.0**1.5 * math.sqrt(beta))
    return z0, np.exp(2j * np.pi * (0.125 - phi0))


def G_eval(problem: OscillatoryProblem) -> complex:
    """Stationary-phase main term G(alpha, beta); exactly 0 for alpha >= 0.

    Both stationary points carry amplitude 2^(-1/2) (3|alpha| beta)^(-1/4)
    and opposite phases +-(1/8 - 2|alpha|^(3/2) / (3^(3/2) beta^(1/2))).
    """
    alpha, beta = problem.alpha, problem.beta
    if alpha >= 0:
        return 0j
    z0, ph = _stationary_phase(alpha, beta)
    amp = 1.0 / (math.sqrt(2.0) * (3.0 * abs(alpha) * beta) ** 0.25)
    return complex(amp * (gauss(z0) * ph + gauss(-z0) * np.conj(ph)))


def G1_eval(problem: OscillatoryProblem, s: float) -> complex:
    """Closed-form main term of I1.

    Includes the 2 pi i prefactor of the differentiated integrand (the
    amplitude is 2^(1/2) |alpha|^(5/4) / (3^(7/4) beta^(3/4) s) per
    stationary point, the first term with a minus sign).
    """
    if s <= 0:
        raise ValueError("s must be positive")
    alpha, beta = problem.alpha, problem.beta
    if alpha >= 0:
        return 0j
    z0, ph = _stationary_phase(alpha, beta)
    amp = math.sqrt(2.0) * abs(alpha) ** 1.25 / (3.0**1.75 * beta**0.75 * s)
    return complex(
        2j * np.pi * amp * (-gauss(z0) * ph + gauss(-z0) * np.conj(ph))
    )


def I1_G1_eval(problem: OscillatoryProblem, s: float) -> tuple[complex, complex]:
    """(I1, G1) at the same point."""
    return I1_eval(problem, s), G1_eval(problem, s)


# ---------------------------------------------------------------------------
# parameter maps


@dataclass(frozen=True)
class ParamContext:
    """The (u, s)-indexed parameters feeding alpha, beta and the cutoff K.

    ``mtilde`` stands for the product m* mtilde of the second Poisson
    step, the only way m* enters the maps, the envelope and the beta floor.
    """

    u: int
    s: float
    X: float
    k2: int = 1
    k3: int = 1
    h: int = 1
    d: int = 1
    mtilde: int = 1

    def __post_init__(self):
        if self.X <= 0 or self.s <= 0:
            raise ValueError("X and s must be positive")
        if self.mtilde == 0:
            raise ValueError("mtilde must be nonzero")


def param_map(ctx: ParamContext) -> tuple[float, float, float]:
    """(alpha, beta, K) with the proof's epsilon set to 0, where ctx.mtilde
    stands for m* mtilde.

    alpha = u s^2 / (X^4 k3^2 (m* mtilde)^2)
    beta  = k2^2 h^2 d^2 s^4 / (X^12 (m* mtilde)^2)
    K     = (k2 k3 h d s)^2 / X^8
    """
    mm2 = ctx.mtilde**2
    alpha = ctx.u * ctx.s**2 / (ctx.X**4 * ctx.k3**2 * mm2)
    beta = (ctx.k2 * ctx.h * ctx.d) ** 2 * ctx.s**4 / (ctx.X**12 * mm2)
    K = (ctx.k2 * ctx.k3 * ctx.h * ctx.d * ctx.s) ** 2 / ctx.X**8
    return alpha, beta, K


def beta_floor_holds(ctx: ParamContext) -> bool:
    """s >= (|m* mtilde| / (k2 h d))^(1/2) X^3, i.e. beta >= 1 at epsilon = 0."""
    return ctx.s >= math.sqrt(
        abs(ctx.mtilde) / (ctx.k2 * ctx.h * ctx.d)
    ) * ctx.X**3


def G_of_s(ctx: ParamContext) -> complex:
    """G through the (alpha, beta) parameter maps, as a function of ctx.s."""
    alpha, beta, _ = param_map(ctx)
    return G_eval(OscillatoryProblem(alpha, beta))


# ---------------------------------------------------------------------------
# scans


@dataclass(frozen=True)
class OmegaRow:
    u: int
    s: float
    alpha: float
    beta: float
    K_cut: float
    I_re: float
    I_im: float
    G_re: float
    G_im: float
    omega_abs: float
    envelope: float
    regime: str
    weight_arg: float
    asserted: bool


# Gaussian weight at z >= this is below ~4e-10; past it the |u| > K regime
# is numerically dead and |Omega| < 1e-6 is asserted.
DECAY_THRESHOLD = 2.6
OMEGA_ASSERT_LEVEL = 1e-6


def omega_contexts() -> list[ParamContext]:
    """Rows covering all three regimes, with |u| > K rows past the decay
    threshold so the assertion set is nonempty."""
    ctxs = []
    X = 2.0
    for s, mt, us in (
        (8.0, 1, (0, 1, -1, 6, -6)),
        (12.0, 1, (0, 12, -12)),
        (16.0, 1, (0, 1, -1, 21, -21)),
        (24.0, 5, (0, 1, -1, 2, -2, 48, -48)),
    ):
        for u in us:
            ctxs.append(ParamContext(u=u, s=s, X=X, mtilde=mt))
    # a (k2, k3) = (2, 3) frame with a larger cutoff K
    for u in (0, 1, -1, 4, -4, 192, -192):
        ctxs.append(ParamContext(u=u, s=8.0, X=X, k2=2, k3=3))
    return ctxs


def omega_scan() -> list[OmegaRow]:
    """Omega = I - G over `omega_contexts`, classified by the (u, K) regime.

    Asserting is left to the caller; rows carry ``asserted`` = True when
    |u| > K and the stationary weight argument exceeds DECAY_THRESHOLD.
    """
    rows = []
    for ctx in omega_contexts():
        if not beta_floor_holds(ctx):
            raise ValueError(f"context {ctx} violates the beta >= 1 floor")
        alpha, beta, K = param_map(ctx)
        prob = OscillatoryProblem(alpha, beta)
        ival = I_eval(prob)
        gval = G_eval(prob)
        om = abs(ival - gval)
        zarg = math.sqrt(abs(alpha) / (3.0 * beta)) if ctx.u != 0 else 0.0
        if ctx.u == 0:
            regime, env = "u=0", 1.0
        elif abs(ctx.u) <= K:
            regime = "0<|u|<=K"
            env = ctx.X**4 * ctx.mtilde**2 / (abs(ctx.u) * ctx.s**2)
        else:
            regime, env = "|u|>K", OMEGA_ASSERT_LEVEL
        rows.append(
            OmegaRow(
                ctx.u, ctx.s, alpha, beta, K,
                ival.real, ival.imag, gval.real, gval.imag,
                om, env, regime, zarg,
                regime == "|u|>K" and zarg >= DECAY_THRESHOLD,
            )
        )
    return rows


@dataclass(frozen=True)
class StationRow:
    alpha: float
    beta: float
    I_re: float
    I_im: float
    G_re: float
    G_im: float
    err: float
    envelope: float
    ratio: float


def default_station_grid() -> list[tuple[float, float]]:
    """(alpha, beta) points inside the box 0 < |alpha| <= 100 beta, sampled
    where the stationary point carries non-negligible weight
    (z0^2 = |alpha|/(3 beta) between 0.7 and 1.3).  Outside that band the
    error decays like the weight at the stationary point while the
    envelope only decays like 1/|alpha|, so ratios collapse toward the
    floating-point noise floor and a single fitted constant is vacuous."""
    pts = []
    for beta in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0):
        for z0sq in (0.7, 0.9, 1.1, 1.3):
            alpha = -3.0 * beta * z0sq
            if 1.0 <= -alpha <= 50.0:
                pts.append((alpha, beta))
    return pts


def station_envelope_scan(grid: list[tuple[float, float]] | None = None) -> list[StationRow]:
    """|I - G| against the envelope log(2 + beta) / |alpha| over the grid."""
    rows = []
    for alpha, beta in default_station_grid() if grid is None else grid:
        prob = OscillatoryProblem(alpha, beta)
        ival = I_eval(prob)
        gval = G_eval(prob)
        err = abs(ival - gval)
        env = math.log(2.0 + beta) / abs(alpha)
        rows.append(
            StationRow(
                alpha, beta, ival.real, ival.imag, gval.real, gval.imag,
                err, env, err / env,
            )
        )
    return rows
