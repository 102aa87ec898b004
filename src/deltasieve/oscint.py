"""Cubic-phase oscillatory integrals and their stationary-phase main terms.

    I(alpha, beta)  = int Gammahat(z) e(-beta z^3 - alpha z) dz
    I1(alpha, beta) = dI/ds under the parameter maps (s = l1)
    G, G1           = closed-form stationary main terms (zero for alpha >= 0)
    Omega           = I - G

The quadrature is adaptive bisection on a fixed 15-point Gauss-Kronrod
rule.  Its initial panels follow the local frequency of the cubic phase
phi(z) = beta z^3 + alpha z: [-Z, Z] is cut into blocks at most 1/8 wide,
and each block gets equal panels no wider than a quarter of the shortest
period phi oscillates with inside that block (and never wider than 1/2).
No panel can alias the phase, and the node count grows like the integral
of |phi'| rather than 2 Z max|phi'|.  Each refinement round evaluates only
the panels it creates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import gaussian_weight

_WEIGHT = gaussian_weight()

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule.
_POS = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_XGK = np.array([-p for p in _POS] + [0.0] + list(reversed(_POS)))
_WGK = np.array(list(_WK) + [0.209482141084728] + list(reversed(_WK)))
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before reaching the tolerance."""


_BLOCK_WIDTH = 0.125


def _initial_panels(a: float, b: float, alpha: float, beta: float, max_panels: int):
    """(lo, hi) edges of the initial panels on [a, b] for the phase
    beta z^3 + alpha z (beta >= 0), with [a, b] cut into equal blocks at
    most _BLOCK_WIDTH wide.

    On each block the phase rate |3 beta z^2 + alpha| (cycles per unit
    length) peaks at an endpoint, or at z = 0 where it is |alpha|; the
    block's equal panels are at most a quarter of that period wide.
    """
    nb = int(math.ceil((b - a) / _BLOCK_WIDTH))
    edges = np.linspace(a, b, nb + 1)
    x0, x1 = edges[:-1], edges[1:]
    rate = np.maximum(np.abs(3.0 * beta * x0 * x0 + alpha), np.abs(3.0 * beta * x1 * x1 + alpha))
    rate = np.where((x0 <= 0.0) & (x1 >= 0.0), np.maximum(rate, abs(alpha)), rate)
    n = np.ceil((x1 - x0) * np.maximum(2.0, 4.0 * rate))
    if not n.sum() <= max_panels:
        raise QuadratureError(f"the initial layout needs more than {max_panels} panels")
    n = n.astype(np.int64)
    first = np.cumsum(n) - n
    k = np.arange(int(n.sum())) - np.repeat(first, n)
    lo = np.repeat(x0, n) + k * np.repeat((x1 - x0) / n, n)
    return lo, np.append(lo[1:], b)


def _gk15(f, lo: np.ndarray, hi: np.ndarray):
    """K15 values and |K15 - G7| error estimates of f on each panel."""
    c = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    vals = f(c[:, None] + hw[:, None] * _XGK[None, :])
    k15 = (vals * _WGK).sum(axis=1) * hw
    g7 = (vals[:, 1::2] * _WG).sum(axis=1) * hw
    return k15, np.abs(k15 - g7)


def _adaptive_gk(
    f, a: float, b: float, tol: float, alpha: float, beta: float, max_panels: int = 400000
):
    """Integrate f over [a, b]; returns (value, error_estimate).

    f oscillates at most like e(beta z^3 + alpha z).  The initial panels
    (`_initial_panels`) cut [a, b] into blocks at most 1/8 wide and each
    block into equal panels at most a quarter of the phase's period inside
    that block; a layout of more than `max_panels` panels is refused.  Each
    round splits every panel whose error estimate exceeds half its
    width-share of `tol` and evaluates only the halves; panels that were
    not split keep their values.
    """
    lo, hi = _initial_panels(a, b, alpha, beta, max_panels)
    total_panels = lo.size
    k15 = err = np.empty(0)
    for _ in range(48):
        k_new, e_new = _gk15(f, lo[k15.size :], hi[k15.size :])
        k15 = np.concatenate([k15, k_new])
        err = np.concatenate([err, e_new])
        total = k15.sum()
        total_err = float(err.sum())
        if total_err <= tol:
            return complex(total), total_err
        # split every panel holding more than its width-share of the budget
        share = tol * (hi - lo) / (b - a)
        split = err > 0.5 * np.maximum(share, 1e-300)
        if not split.any():
            return complex(total), total_err
        total_panels += int(split.sum())
        if total_panels > max_panels:
            raise QuadratureError(
                f"needed more than {max_panels} panels for tol {tol:g}"
            )
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
        k15, err = k15[~split], err[~split]
    raise QuadratureError(f"no convergence to tol {tol:g} after 48 rounds")


@dataclass(frozen=True)
class OscillatoryProblem:
    alpha: float
    beta: float
    tolerance: float = 1e-9

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.tolerance <= 1e-6:
            raise ValueError("tolerance must lie in (0, 1e-6]")


def _cutoff(problem: OscillatoryProblem, amp_scale: float = 1.0) -> float:
    z = _WEIGHT.decay_radius(problem.tolerance * 1e-3 / max(amp_scale, 1.0))
    return max(z, 3.5)


def I_eval(problem: OscillatoryProblem) -> complex:
    """I(alpha, beta) by oscillation-aware adaptive quadrature."""
    alpha, beta, w = problem.alpha, problem.beta, _WEIGHT
    Z = _cutoff(problem)

    def f(z):
        return w.fourier(z) * np.exp(-2j * np.pi * (beta * (z * z * z) + alpha * z))

    val, _ = _adaptive_gk(f, -Z, Z, problem.tolerance, alpha, beta)
    return val


def I1_eval(problem: OscillatoryProblem, s: float) -> complex:
    """I1(alpha, beta) = dI/ds: quadrature of the differentiated integrand.

    The integrand carries the factor 2 pi i (-(4 beta / s) z^3 - (2 alpha / s) z)
    from differentiating the phase under the (alpha, beta) parameter maps.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    alpha, beta, w = problem.alpha, problem.beta, _WEIGHT
    Z0 = _cutoff(problem)
    amp = 2 * math.pi * (4 * beta / s * Z0**3 + 2 * abs(alpha) / s * Z0 + 1)
    Z = _cutoff(problem, amp)

    def f(z):
        z3 = z * z * z
        poly = -(4.0 * beta / s) * z3 - (2.0 * alpha / s) * z
        return 2j * np.pi * w.fourier(z) * poly * np.exp(
            -2j * np.pi * (beta * z3 + alpha * z)
        )

    val, _ = _adaptive_gk(f, -Z, Z, problem.tolerance, alpha, beta)
    return val


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
    """(I1, G1) at the same point: quadrature plus the closed form."""
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
    return G_eval(OscillatoryProblem(alpha, beta, 1e-9))


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


def omega_scan(
    contexts: list[ParamContext] | None = None,
    tolerance: float = 1e-8,
) -> list[OmegaRow]:
    """Omega = I - G over a context grid, classified by the (u, K) regime.

    Asserting is left to the caller; rows carry ``asserted`` = True when
    |u| > K and the stationary weight argument exceeds DECAY_THRESHOLD.
    """
    rows = []
    for ctx in contexts or default_omega_contexts():
        if not beta_floor_holds(ctx):
            raise ValueError(f"context {ctx} violates the beta >= 1 floor")
        alpha, beta, K = param_map(ctx)
        prob = OscillatoryProblem(alpha, beta, tolerance)
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
    quadrature noise floor and a single fitted constant is vacuous."""
    pts = []
    for beta in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0):
        for z0sq in (0.7, 0.9, 1.1, 1.3):
            alpha = -3.0 * beta * z0sq
            if 1.0 <= -alpha <= 50.0:
                pts.append((alpha, beta))
    return pts


def station_envelope_scan(
    grid: list[tuple[float, float]] | None = None,
    tolerance: float = 1e-10,
) -> list[StationRow]:
    """|I - G| against the envelope log(2 + beta) / |alpha| over the grid."""
    rows = []
    for alpha, beta in grid or default_station_grid():
        prob = OscillatoryProblem(alpha, beta, tolerance)
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
