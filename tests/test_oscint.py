import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from deltasieve import oscint as oi

import _airy_sweep


def test_problem_validation():
    with pytest.raises(ValueError):
        oi.OscillatoryProblem(0.0, 0.0)
    with pytest.raises(ValueError):
        oi.OscillatoryProblem(0.0, 1.0, tolerance=1e-5)
    for alpha, beta in ((math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            oi.OscillatoryProblem(alpha, beta)


def test_I_far_below_the_rotation_edge_is_finite():
    # -x^(3/2) at alpha = -1e250 overflows a float
    v = oi.I_eval(oi.OscillatoryProblem(-1e250, 1.0))
    assert math.isfinite(v.real) and v.imag == 0.0


def test_I_at_zero_alpha_bounded():
    v = oi.I_eval(oi.OscillatoryProblem(0.0, 2.0))
    assert abs(v) <= 1.0


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
    # s <= 0 is rejected whatever the sign of alpha, as in I1_eval
    for s in (0.0, -1.0):
        with pytest.raises(ValueError):
            oi.G1_eval(oi.OscillatoryProblem(1.0, 1.0), s)


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
        oi.ParamContext(u=1, s=1.0, X=1.0, mtilde=0)


def test_beta_floor():
    assert oi.beta_floor_holds(oi.ParamContext(u=0, s=8.0, X=2.0))
    assert not oi.beta_floor_holds(oi.ParamContext(u=0, s=7.9, X=2.0))


def test_station_scan_rows():
    rows = oi.station_envelope_scan(grid=[(-2.1, 1.0), (-3.3, 1.0)])
    for r in rows:
        assert r.err >= 0 and r.envelope > 0
        assert abs(r.ratio - r.err / r.envelope) < 1e-15
    assert oi.station_envelope_scan([]) == []


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


def _oracle(alpha, beta, s=None, R=3.3):
    """The brute-force oracle of the closed form:
    I (s None) or I1 at s by 30-digit mp.quad on [0, R], pieces of at
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
        (-1.0, 1.0, 1e-10, None),
        _omega_23(),
    ],
)
def test_quadrature_matches_mpmath(alpha, beta, tol, s):
    p = oi.OscillatoryProblem(alpha, beta, tol)
    assert abs(oi.I_eval(p) - _oracle(alpha, beta)) <= tol
    if s is not None:
        assert abs(oi.I1_eval(p, s) - _oracle(alpha, beta, s)) <= tol


def test_mp_precision_restored():
    # density reads the global mpmath context; beta = 1e-9 works at ~37
    # digits, (-250, 9) takes the rotated Ai, (250, 9) returns before Ai,
    # (8, 9) takes the 0F1 pair at raised precision and (-12, 9) the series
    saved = mp.dps
    try:
        mp.dps = 21
        for alpha, beta in ((1.5, 1e-9), (-250.0, 9.0), (250.0, 9.0), (8.0, 9.0), (-12.0, 9.0)):
            p = oi.OscillatoryProblem(alpha, beta)
            oi.I_eval(p)
            oi.I1_eval(p, 1.0)
            assert mp.dps == 21
    finally:
        mp.dps = saved


def _bound_rounds_to_zero(alpha, beta):
    """The DLMF 9.7.15 bound of I below e^_LOG_ZERO, tested in mpf at the
    working digits."""
    with mp.workdps(oi._digits(alpha, beta, None)):
        c, E, x = oi._airy_args(mp.mpf(alpha), mp.mpf(beta))
        return x > 0 and (
            E + mp.log(mp.pi * c * c / mp.sqrt(x)) / 2 - 2 * x**1.5 / 3 < oi._LOG_ZERO
        )


def test_rounds_to_zero_agrees_with_working_precision():
    # beta = 9: the u-sum; beta = 1e-9: E and zeta near 5.8e16 cancel to
    # the cut, so a float test there rests on its rounding
    pts = [(float(u), 9.0) for u in range(-250, 251)]
    pts += [(15.0 + k / 20, 1e-9) for k in range(11)]
    pts += [(-300.0 + 10 * i, 1e-3 * 10 ** (k / 8)) for k in range(41) for i in range(61)]
    zero = {}
    for alpha, beta in pts:
        zero[alpha, beta] = oi._rounds_to_zero(alpha, beta)
        if zero[alpha, beta]:
            assert _bound_rounds_to_zero(alpha, beta), (alpha, beta)
    assert all(zero[float(u), 9.0] for u in range(96, 251))
    # below the cut in mpf, but within the float test's margin of it
    assert _bound_rounds_to_zero(15.5, 1e-9) and not zero[15.5, 1e-9]
    assert not zero[15.4, 1e-9]
    # the float logarithm lies 4e6 below the cut, the mpf one 10.5 above it
    alpha, beta = 15.302086271251854, 1.3254395704607234e-12
    assert not _bound_rounds_to_zero(alpha, beta) and not oi._rounds_to_zero(alpha, beta)


def _direct_route(alpha, beta, s=None, dps=None):
    """I (s None) or I1 at s through mp.airyai at the real point x itself.

    With dps None the digits follow the 15-digit rule of the route before
    `oscint._digits`: 20 + int(log10(1 + |E| + |x|^(3/2))) from a first
    pass over the closed-form arguments."""
    if dps is None:
        with mp.workdps(15):
            _, E, x = oi._airy_args(mp.mpf(alpha), mp.mpf(beta))
            dps = 20 + int(mp.log10(1 + abs(E) + abs(x) ** 1.5))
    with mp.workdps(dps):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        c, E, x = oi._airy_args(a, b)
        scale = 2 * mp.pi * c * mp.exp(E)
        if s is None:
            return complex(float(scale * mp.airyai(x)))
        pa = -mp.mpf(4) / 3 - 4 * mp.pi / (27 * b * b) - 2 * mp.pi * a / (3 * b)
        px = -4 * x / 3 - 2 * mp.pi * c / (3 * b) + 4 * mp.pi * a * c
        v = scale * (pa * mp.airyai(x) + px * mp.airyai(x, derivative=1)) / s
        return complex(float(v))


def _context_points():
    """(alpha, beta, s) of the station band (s = 1) and the omega contexts."""
    pts = [(a, b, 1.0) for a, b in oi.default_station_grid()]
    for ctx in oi.omega_contexts():
        alpha, beta, _ = oi.param_map(ctx)
        pts.append((alpha, beta, ctx.s))
    return pts


def test_I_eval_bit_identical_to_direct_route():
    # beta = 9: all three Ai regions, and values from subnormal to 0 near
    # u = 95..110; beta = 1e-9: normal, subnormal and 0 over alpha 15..15.5
    pts = [(float(u), 9.0) for u in range(-250, 251)]
    pts += [(15.0 + k / 20, 1e-9) for k in range(11)]
    pts += [(a, b) for a, b, _ in _context_points()]
    pts += [(1.5, 1e-150), (1.5, 1e-200), (-3.0, 1e-200)]
    kinds = set()
    for alpha, beta in pts:
        v = oi.I_eval(oi.OscillatoryProblem(alpha, beta))
        assert _airy_sweep.bits(v) == _airy_sweep.bits(_direct_route(alpha, beta)), (alpha, beta)
        assert v.imag == 0.0
        kinds.add("zero" if v == 0 else "subnormal" if abs(v) < 2.0**-1022 else "normal")
    assert kinds == {"zero", "subnormal", "normal"}


def test_I1_eval_bit_identical_to_direct_route():
    # the u-sum at beta = 9 steps through every Ai and Ai' band
    pts = [(float(u), 9.0, 8.0) for u in range(-250, 251)]
    pts += _context_points()
    pts += [(a, b, 1.0) for b in (1e-2, 0.1) for a in (-30.0, -3.0, 0.0, 1.5, 30.0)]
    for alpha, beta, s in pts:
        v = oi.I1_eval(oi.OscillatoryProblem(alpha, beta), s)
        ref = _direct_route(alpha, beta, s)
        assert _airy_sweep.bits(v) == _airy_sweep.bits(ref), (alpha, beta, s)


@pytest.mark.parametrize("beta", [1e-9, 1e-7, 1e-6, 1e-4])
@pytest.mark.parametrize("s", [1.0, 8.0])
def test_I1_small_beta_matches_120_digits(beta, s):
    # at alpha = 0 the two terms of I1 cancel to ~beta / s of their size
    v = oi.I1_eval(oi.OscillatoryProblem(0.0, beta), s)
    ref = _direct_route(0.0, beta, s, dps=120)
    assert v.imag == 0.0
    assert abs(v.real - ref.real) <= 1e-14 * abs(ref.real)


@pytest.mark.parametrize("dps", [17, 21, 37, 60, 100, 200])
def test_rotated_ai_matches_connection_formula(dps):
    # below -edge, Ai and Ai' against 2 Re[w Ai(-x w)] and -2 Re[w^2 Ai'(-x w)]
    # through mp.airyai at the complex point, within a few ulps of the
    # envelope |x|^(n/2 - 1/4) / sqrt(pi); the formula is taken 64 bits up,
    # as the rounding of -x w at the working precision moves it by up to
    # zeta ulps
    with mp.workdps(dps):
        edge = _airy_sweep.edge()
        xs = [-edge * (1 + 1e-12)] + [-edge - (1000 - edge) * (k / 60) ** 2 for k in range(1, 61)]
        for x in map(mp.mpf, xs):
            for n in (0, 1):
                v = oi._ai(x, n)
                with mp.extraprec(64):
                    ref = _airy_sweep.connection_ai(x, n)
                ulp = abs(x) ** (n / 2 - 0.25) / mp.sqrt(mp.pi) * mp.mpf(2) ** -mp.prec
                assert abs(v - ref) <= 6 * ulp, (dps, x, n)


def test_airy_routing(monkeypatch):
    # the u-sum at beta = 9 and I1 over the station band and at beta = 9
    # call mpmath only on its cheap branches: the 2F0 series of the rotated
    # Ai and Ai' only where it reaches the working digits (under
    # force_series it raises NoConvergence otherwise) and no complex
    # airyai, plain series from that edge to 4, the 0F1 pair from 4 to the
    # edge, and no call where I rounds to 0 (u >= 96)
    calls, series, rotated = [], [], []
    airyai, hyp0f1, hyp2f0 = mp.airyai, mp.hyp0f1, mp.hyp2f0

    def recording(z, derivative=0, **kwargs):
        calls.append((u, z, _airy_sweep.edge(), kwargs))
        return airyai(z, derivative=derivative, **kwargs)

    def recording_0f1(b, z, **kwargs):
        series.append((b, kwargs))
        return hyp0f1(b, z, **kwargs)

    def recording_2f0(a, b, z, **kwargs):
        # z = 3i / (4 |x|^(3/2))
        rotated.append(((a, b), (0.75 / abs(z)) ** (2 / 3), _airy_sweep.edge(), kwargs))
        return hyp2f0(a, b, z, **kwargs)

    monkeypatch.setattr(mp, "airyai", recording)
    monkeypatch.setattr(mp, "hyp0f1", recording_0f1)
    monkeypatch.setattr(mp, "hyp2f0", recording_2f0)
    for u in range(-250, 251):
        oi.I_eval(oi.OscillatoryProblem(float(u), 9.0))
    assert calls and max(u for u, *_ in calls) < 96
    assert {b for b, _ in series} == {(2, 3), (4, 3)}
    assert {ab for ab, *_ in rotated} == {((1, 6), (5, 6))}
    for u, (alpha, beta) in enumerate(oi.default_station_grid()):
        oi.I1_eval(oi.OscillatoryProblem(alpha, beta), 1.0)
    for u in range(-20, 21):
        oi.I1_eval(oi.OscillatoryProblem(float(u), 9.0), 8.0)
    assert not any(isinstance(z, mp.mpc) for _, z, _, _ in calls)
    assert not any(4 < z <= edge for _, z, edge, _ in calls)
    band = [(z, kw) for _, z, edge, kw in calls if -edge <= z <= 4]
    assert any(z < -8 for z, _ in band) and any(-8 <= z <= 4 for z, _ in band)
    assert all(kw.get("force_series") for _, kw in band)
    assert {b for b, _ in series} == {(1, 3), (2, 3), (4, 3), (5, 3)}
    assert all(kw.get("force_series") for _, kw in series)
    assert {ab for ab, *_ in rotated} == {((1, 6), (5, 6)), ((-1, 6), (7, 6))}
    assert all(x > edge and kw.get("force_series") for _, x, edge, kw in rotated)


def test_no_scipy_import():
    # importing scipy.special alone costs about as much as the package import;
    # deltasieve.suites loads every module of the package
    code = (
        "import sys, deltasieve.suites\n"
        "deltasieve.oscint.I_eval(deltasieve.oscint.OscillatoryProblem(-1.0, 9.0))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(oi.__file__).parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
