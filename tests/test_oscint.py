import math

import numpy as np
import pytest
from mpmath import mp

from deltasieve import oscint as oi


def test_problem_validation():
    with pytest.raises(ValueError):
        oi.OscillatoryProblem(0.0, 0.0)
    with pytest.raises(ValueError):
        oi.OscillatoryProblem(0.0, 1.0, tolerance=1e-5)


def test_I_at_zero_alpha_bounded():
    v = oi.I_eval(oi.OscillatoryProblem(0.0, 2.0))
    assert abs(v) <= 1.0


def test_I_real_and_self_oracle():
    a = oi.I_eval(oi.OscillatoryProblem(-1.0, 1.0, tolerance=1e-8))
    b = oi.I_eval(oi.OscillatoryProblem(-1.0, 1.0, tolerance=1e-10))
    assert abs(a - b) < 1e-8
    assert abs(a.imag) < 1e-9


def test_G_eval():
    assert oi.G_eval(oi.OscillatoryProblem(0.5, 1.0)) == 0
    assert oi.G_eval(oi.OscillatoryProblem(0.0, 1.0)) == 0
    p = oi.OscillatoryProblem(-3.0, 1.0)
    g = oi.G_eval(p)
    # stationary points at +-1, weight exp(-pi), amplitude 2^-1/2 3^-1/2
    z0 = oi.stationary_point(-3.0, 1.0)
    assert z0 == pytest.approx(1.0)
    amp = 1 / (math.sqrt(2) * (9.0) ** 0.25)
    assert abs(g) <= 2 * amp * math.exp(-math.pi) + 1e-12
    # I approximates G within the lemma budget log(2+beta)/|alpha|
    i = oi.I_eval(p)
    assert abs(i - g) < math.log(2 + 1.0) / 3.0


def test_I1_matches_finite_difference():
    ctx = oi.ParamContext(u=-2, s=1.2, X=1.0)
    alpha, beta, _ = oi.param_map(ctx)
    s = ctx.s
    h = 2e-4 * s
    i1 = oi.I1_eval(oi.OscillatoryProblem(alpha, beta, tolerance=1e-11), s)
    def I_at(sv):
        a, b, _ = oi.param_map(oi.ParamContext(u=-2, s=sv, X=1.0))
        return oi.I_eval(oi.OscillatoryProblem(a, b, tolerance=1e-11))
    fd = (I_at(s + h) - I_at(s - h)) / (2 * h)
    assert abs(i1 - fd) <= 1e-5 * (1 + abs(i1))


def test_G1_zero_for_nonneg_alpha():
    assert oi.G1_eval(oi.OscillatoryProblem(1.0, 1.0), 2.0) == 0


def test_I1_G1_pair():
    p = oi.OscillatoryProblem(-3.0, 1.0, tolerance=1e-9)
    i1, g1 = oi.I1_G1_eval(p, 1.0)
    assert i1 == oi.I1_eval(p, 1.0)
    assert g1 == oi.G1_eval(p, 1.0)




def test_param_map():
    a, b, K = oi.param_map(oi.ParamContext(u=2, s=1000.0, X=10.0))
    assert a == pytest.approx(200.0)
    assert b == pytest.approx(1.0)
    a0, _, _ = oi.param_map(oi.ParamContext(u=0, s=3.0, X=2.0))
    assert a0 == 0.0
    assert oi.param_map(oi.ParamContext(u=3, s=1.0, X=1.0)) == (3.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        oi.ParamContext(u=1, s=1.0, X=1.0, mstar=0)


def test_beta_floor():
    assert oi.beta_floor_holds(oi.ParamContext(u=0, s=8.0, X=2.0))
    assert not oi.beta_floor_holds(oi.ParamContext(u=0, s=7.9, X=2.0))


def test_station_scan_rows():
    rows = oi.station_envelope_scan(grid=[(-2.1, 1.0), (-3.3, 1.0)])
    for r in rows:
        assert r.err >= 0 and r.envelope > 0
        assert abs(r.ratio - r.err / r.envelope) < 1e-15


def test_omega_scan_regimes():
    rows = oi.omega_scan()
    regs = {r.regime for r in rows}
    assert regs == {"u=0", "0<|u|<=K", "|u|>K"}
    for r in rows:
        if r.regime == "u=0":
            assert r.omega_abs <= 1.0 + 1e-9
        if r.asserted:
            assert r.omega_abs < oi.OMEGA_ASSERT_LEVEL
    assert sum(r.asserted for r in rows) >= 4


def test_quadrature_error_budget():
    # an unreachable tolerance must exhaust the panel budget, not spin
    with pytest.raises(oi.QuadratureError):
        oi._adaptive_gk(lambda z: np.exp(40j * z * z), 0.0, 1.0, 1e-30, 1.0, 0.0, max_panels=16)
    # a phase too fast for the budget is refused before its panels are built
    with pytest.raises(oi.QuadratureError):
        oi.I_eval(oi.OscillatoryProblem(1e12, 1.0))


def _oracle(alpha, beta, s=None, R=3.3):
    """I (s None) or I1 at s by 30-digit mp.quad on [0, R], pieces of at
    most 8 cycles.  The weight is even and the phase odd, so
    I = 2 int_0^R g cos(2 pi phi) and I1 = 4 pi int_0^R g poly sin(2 pi phi);
    past R the weight is below 2e-15."""
    with mp.workdps(30):
        a, b = mp.mpf(alpha), mp.mpf(beta)

        def phase2(z):
            return 2 * (b * z * z * z + a * z)

        if s is None:
            def f(z):
                return 2 * mp.exp(-mp.pi * z * z) * mp.cospi(phase2(z))
        else:
            c3, c1 = -4 * b / s, -2 * a / s

            def f(z):
                poly = c3 * z * z * z + c1 * z
                return 4 * mp.pi * mp.exp(-mp.pi * z * z) * poly * mp.sinpi(phase2(z))

        pieces = math.ceil(R * (3 * beta * R * R + abs(alpha)) / 8)
        val, err = mp.quad(f, mp.linspace(0, R, pieces + 1), method="gauss-legendre", error=True)
        assert err < 1e-20
        return float(val)


def _omega_23():
    """The asserted |u| > K row of the (k2, k3) = (2, 3) omega frame."""
    ctx = oi.ParamContext(u=-192, s=8.0, X=2.0, k2=2, k3=3)
    alpha, beta, _ = oi.param_map(ctx)
    return alpha, beta, 1e-8, ctx.s


@pytest.mark.parametrize(
    "alpha, beta, tol, s",
    [
        (250.0, 9.0, 1e-10, None),  # the second Poisson u-sum, both ends
        (-250.0, 9.0, 1e-10, None),
        (1.5, 1e-9, 1e-8, 1.0),  # the Gaussian limit
        (-3.3, 1.0, 1e-10, 1.0),  # a station-grid point, z0^2 = 1.1
        _omega_23(),
    ],
)
def test_quadrature_matches_mpmath(alpha, beta, tol, s):
    p = oi.OscillatoryProblem(alpha, beta, tol)
    assert abs(oi.I_eval(p) - _oracle(alpha, beta)) <= tol
    if s is not None:
        assert abs(oi.I1_eval(p, s) - _oracle(alpha, beta, s)) <= tol


def test_adaptive_refinement_converges():
    # a peak of width 1e-3 that the initial panels cannot resolve: several
    # rounds of splitting, each keeping the values of the panels it left
    eps = 1e-3
    val, err = oi._adaptive_gk(lambda z: 1.0 / (1.0 + (z / eps) ** 2), -1.0, 1.0, 1e-12, 0.0, 0.0)
    assert err <= 1e-12
    assert abs(val - 2 * eps * math.atan(1 / eps)) <= 1e-12


@pytest.mark.parametrize(
    "alpha, beta, a, b",
    [
        (250.0, 9.0, -3.5, 3.5),
        (-250.0, 9.0, -3.55, 3.55),  # an odd number of blocks: 0 inside one
        (0.0, 9.0, -3.5, 3.5),
        (1.5, 1e-9, -3.5, 3.5),
        (-8.0, 1e3, -1.3, 2.9),  # the rate peaks at 0 inside a block
    ],
)
def test_initial_panels_resolve_local_period(alpha, beta, a, b):
    lo, hi = oi._initial_panels(a, b, alpha, beta, 400000)
    assert lo[0] == a and hi[-1] == b and np.array_equal(hi[:-1], lo[1:])
    width = hi - lo
    assert (width > 0).all() and (width <= 0.5).all()
    # |3 beta z^2 + alpha| peaks at an end of the panel or at its point nearest 0
    rate = np.max(
        [np.abs(3 * beta * z * z + alpha) for z in (lo, hi, np.clip(0.0, lo, hi))], axis=0
    )
    assert (width * rate <= 0.25 * (1 + 1e-12)).all()
