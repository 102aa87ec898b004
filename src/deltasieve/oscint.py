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

I1 follows by the chain rule with Ai'.  Both are evaluated with mpmath's
``airyai``; the working digits grow with |E| and |x|^(3/2), because exp(E)
cancels the decay of Ai(x) (about 37 digits at beta = 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .weights import gaussian_weight

_WEIGHT = gaussian_weight()


@dataclass(frozen=True)
class OscillatoryProblem:
    """The point (alpha, beta) of I and I1, with beta > 0.

    ``tolerance`` states the absolute accuracy the caller accepts.  No
    evaluation reads it: the closed form is accurate to ~1e-15 |I|.  The
    field and its validation stay because the benchmark's workloads build
    problems with it; they go with the next change to the benchmark.
    """

    alpha: float
    beta: float
    tolerance: float = 1e-9

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.tolerance <= 1e-6:
            raise ValueError("tolerance must lie in (0, 1e-6]")


def _airy_args(a, b):
    """(c, E, x) of the closed form at the current mpmath precision."""
    c = 1 / mp.cbrt(6 * mp.pi * b)
    E = mp.pi / (54 * b * b) + mp.pi * a / (3 * b)
    return c, E, c * (2 * mp.pi * a + mp.pi / (6 * b))


def _airy_eval(alpha: float, beta: float, s: float | None) -> complex:
    """I (s None) or I1 at s through Ai and Ai', to ~15 significant digits.

    Relative errors in E and x are amplified by |E| and by |x|^(3/2) (the
    exponent of Ai's decay or the phase of its oscillation), so 20 digits
    are kept beyond log10(1 + |E| + |x|^(3/2)).
    """
    with mp.workdps(15):
        _, E, x = _airy_args(mp.mpf(alpha), mp.mpf(beta))
        dps = 20 + int(mp.log10(1 + abs(E) + abs(x) ** 1.5))
    with mp.workdps(dps):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        c, E, x = _airy_args(a, b)
        scale = 2 * mp.pi * c * mp.exp(E)
        if s is None:
            return complex(float(scale * mp.airyai(x)))
        # d/ds = (4 beta/s) d/dbeta + (2 alpha/s) d/dalpha of log(c) + E
        # (the Ai factor) and of x (the Ai' factor)
        pa = -mp.mpf(4) / 3 - 4 * mp.pi / (27 * b * b) - 2 * mp.pi * a / (3 * b)
        px = -4 * x / 3 - 2 * mp.pi * c / (3 * b) + 4 * mp.pi * a * c
        v = scale * (pa * mp.airyai(x) + px * mp.airyai(x, derivative=1)) / s
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


def G_eval(problem: OscillatoryProblem) -> complex:
    """Stationary-phase main term G(alpha, beta); exactly 0 for alpha >= 0.

    Both stationary points carry amplitude 2^(-1/2) (3|alpha| beta)^(-1/4)
    and opposite phases +-(1/8 - 2|alpha|^(3/2) / (3^(3/2) beta^(1/2))).
    """
    alpha, beta, w = problem.alpha, problem.beta, _WEIGHT
    if alpha >= 0:
        return 0j
    z0 = stationary_point(alpha, beta)
    amp = 1.0 / (math.sqrt(2.0) * (3.0 * abs(alpha) * beta) ** 0.25)
    phi0 = 2.0 * abs(alpha) ** 1.5 / (3.0**1.5 * math.sqrt(beta))
    ph = np.exp(2j * np.pi * (0.125 - phi0))
    return complex(amp * (w.fourier(z0) * ph + w.fourier(-z0) * np.conj(ph)))


def G1_eval(problem: OscillatoryProblem, s: float) -> complex:
    """Closed-form main term of I1.

    Includes the 2 pi i prefactor of the differentiated integrand (the
    amplitude is 2^(1/2) |alpha|^(5/4) / (3^(7/4) beta^(3/4) s) per
    stationary point, the first term with a minus sign).
    """
    alpha, beta, w = problem.alpha, problem.beta, _WEIGHT
    if alpha >= 0:
        return 0j
    if s <= 0:
        raise ValueError("s must be positive")
    z0 = stationary_point(alpha, beta)
    amp = math.sqrt(2.0) * abs(alpha) ** 1.25 / (3.0**1.75 * beta**0.75 * s)
    phi0 = 2.0 * abs(alpha) ** 1.5 / (3.0**1.5 * math.sqrt(beta))
    ph = np.exp(2j * np.pi * (0.125 - phi0))
    return complex(
        2j * np.pi * amp * (-w.fourier(z0) * ph + w.fourier(-z0) * np.conj(ph))
    )


def I1_G1_eval(problem: OscillatoryProblem, s: float) -> tuple[complex, complex]:
    """(I1, G1) at the same point."""
    return I1_eval(problem, s), G1_eval(problem, s)


# ---------------------------------------------------------------------------
# parameter maps


@dataclass(frozen=True)
class ParamContext:
    """The (u, s)-indexed parameters feeding alpha, beta and the cutoff K."""

    u: int
    s: float
    X: float
    k2: int = 1
    k3: int = 1
    h: int = 1
    d: int = 1
    mstar: int = 1
    mtilde: int = 1

    def __post_init__(self):
        if self.X <= 0 or self.s <= 0:
            raise ValueError("X and s must be positive")
        if self.mstar == 0 or self.mtilde == 0:
            raise ValueError("mstar, mtilde must be nonzero")


def param_map(ctx: ParamContext) -> tuple[float, float, float]:
    """(alpha, beta, K) with the proof's epsilon set to 0.

    alpha = u s^2 / (X^4 k3^2 (m* mtilde)^2)
    beta  = k2^2 h^2 d^2 s^4 / (X^12 (m* mtilde)^2)
    K     = (k2 k3 h d s)^2 / X^8
    """
    mm2 = (ctx.mstar * ctx.mtilde) ** 2
    alpha = ctx.u * ctx.s**2 / (ctx.X**4 * ctx.k3**2 * mm2)
    beta = (ctx.k2 * ctx.h * ctx.d) ** 2 * ctx.s**4 / (ctx.X**12 * mm2)
    K = (ctx.k2 * ctx.k3 * ctx.h * ctx.d * ctx.s) ** 2 / ctx.X**8
    return alpha, beta, K


def beta_floor_holds(ctx: ParamContext) -> bool:
    """s >= (|m* mtilde| / (k2 h d))^(1/2) X^3, i.e. beta >= 1 at epsilon = 0."""
    return ctx.s >= math.sqrt(
        abs(ctx.mstar * ctx.mtilde) / (ctx.k2 * ctx.h * ctx.d)
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


OMEGA_CSV_COLUMNS = (
    "u", "s", "alpha", "beta", "K_cut", "I_re", "I_im", "G_re", "G_im",
    "omega_abs", "envelope", "regime", "weight_arg", "asserted",
)

# Gaussian weight at z >= this is below ~4e-10; past it the |u| > K regime
# is numerically dead and |Omega| < 1e-6 is asserted.
DECAY_THRESHOLD = 2.6
OMEGA_ASSERT_LEVEL = 1e-6


def default_omega_contexts() -> list[ParamContext]:
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


def omega_scan(contexts: list[ParamContext] | None = None) -> list[OmegaRow]:
    """Omega = I - G over a context grid, classified by the (u, K) regime.

    Asserting is left to the caller; rows carry ``asserted`` = True when
    |u| > K and the stationary weight argument exceeds DECAY_THRESHOLD.
    """
    rows = []
    for ctx in contexts or default_omega_contexts():
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
            env = ctx.X**4 * (ctx.mstar * ctx.mtilde) ** 2 / (abs(ctx.u) * ctx.s**2)
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


STATION_CSV_COLUMNS = (
    "alpha", "beta", "I_re", "I_im", "G_re", "G_im", "err", "envelope", "ratio",
)


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
    for alpha, beta in grid or default_station_grid():
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
