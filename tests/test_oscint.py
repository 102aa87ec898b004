import math

import numpy as np
import pytest

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
        oi._adaptive_gk(lambda z: np.exp(40j * z * z), 0.0, 1.0, 1e-30, 8.0, max_panels=16)
