import pytest

from deltasieve import sieve as sv


def test_delta_value():
    assert sv.delta_value(1, 1) == 31
    assert sv.delta_value(-3, 2) == 0
    assert sv.delta_value(0, 1) == 27
    with pytest.raises(ValueError):
        sv.delta_value(2**21, 0)


def test_config_guards():
    with pytest.raises(ValueError):
        sv.CountConfig(X=9.0)
    with pytest.raises(ValueError):
        sv.CountConfig(X=5.0, mode="smoothed")
    with pytest.raises(ValueError):
        sv.CountConfig(X=1.0, mode="weird")


def test_exact_count_x1():
    res = sv.exact_count(sv.CountConfig(X=1))
    assert res.count == 4
    assert res.nstripes == 3
    # the survivors are (+-1, +-1)
    by_A = {row[0]: row for row in res.stripe_summaries}
    assert by_A[0][1] == 0
    assert by_A[1][1] == 2 and by_A[-1][1] == 2






def test_three_divides_A_stripes_die():
    res = sv.exact_count(sv.CountConfig(X=2))
    for row in res.stripe_summaries:
        if row[0] % 3 == 0:
            assert row[1] == 0  # 27 | Delta whenever 3 | A


def test_delta_zero_parametrization_excluded():
    # Delta = 0 exactly at (A, B) = (-3t^2, +-2t^3); all lie in dead stripes
    res = sv.exact_count(sv.CountConfig(X=3))
    by_A = {row[0]: row[1] for row in res.stripe_summaries}
    t = 0
    while 3 * t * t <= 3**4:
        assert by_A[-3 * t * t] == 0
        t += 1




def test_S_term():
    assert sv.S_term(1, 2) == 2
    assert sv.S_term(1, 5) == 0
    assert sv.S_term(1, 1) == 8
    # X = 2 box minus the five Delta = 0 pairs (t = 0, 1, 2 below)
    assert sv.S_term(2, 1) == (2 * 16 + 1) * (2 * 64 + 1) - 5


def test_delta_zero_pairs_in_box():
    # X = 2: (0,0), (-3, +-2), (-12, +-16) are the only Delta = 0 pairs
    cnt = 0
    for A in range(-16, 17):
        for B in range(-64, 65):
            if 4 * A**3 + 27 * B**2 == 0:
                cnt += 1
    assert cnt == 5


def test_tail_S2():
    assert sv.tail_S2(1, 3)[0] == 0
    assert sv.tail_S2(2, 10**4)[0] == 0
    val, shape = sv.tail_S2(2, 2)
    assert abs(val) <= shape


def test_smoothed_vs_direct():
    got = sv.smoothed_count(sv.CountConfig(X=1.5, mode="smoothed")).weighted
    want = sv.naive_weighted_sum(1.5)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_compare_main_term_row():
    rows = sv.compare_main_term([1], prime_bound=10**3)
    r = rows[0]
    assert r.count_or_sum == 4
    assert r.main_lo <= r.main_hi
    mid = (r.main_lo + r.main_hi) / 2
    assert r.residual == pytest.approx(4 - mid, abs=1e-6)


def test_stripe_digest_varies():
    a = sv.exact_count(sv.CountConfig(X=1))
    b = sv.exact_count(sv.CountConfig(X=2))
    assert a.stripe_digest != b.stripe_digest
