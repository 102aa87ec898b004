import math

import numpy as np
import pytest

from deltasieve import expsum as es


def test_raw_phase_sum_examples():
    v = es.raw_phase_sum(es.PhasePolynomial((1,), 7))
    assert abs(v) < 1e-12  # full geometric sum
    v = es.raw_phase_sum(es.PhasePolynomial((0, 0, 1), 9))
    assert abs(v - 3 * (1 + 2 * math.cos(2 * math.pi / 9))) < 1e-12


def test_raw_phase_sum_guard():
    with pytest.raises(ValueError):
        es.raw_phase_sum(es.PhasePolynomial((1,), 10**7 + 1))
    with pytest.raises(ValueError):
        es.E_sum(1, 1, 10**7 + 1)


def test_E_sum_examples():
    assert abs(es.E_sum(0, 0, 5) - 4) < 1e-12
    assert abs(es.E_sum(3, 7, 1) - 1) < 1e-12
    assert abs(es.E_sum(0, 1, 5) - (math.sqrt(5) - 1)) < 1e-12


def test_abs_error_budget():
    # |S| <= #terms = phi(9973), up to the summation error
    assert abs(es.E_sum(3, 5, 9973)) <= 9972 + 1e-12 * 9973


def test_frame_validation():
    with pytest.raises(ValueError):
        es.CongruenceFrame(1, 1, 2, 5)  # (h, 6) != 1
    with pytest.raises(ValueError):
        es.CongruenceFrame(1, 1, 1, 12)  # l not coprime to 6
    with pytest.raises(ValueError):
        es.CongruenceFrame(1, 1, 1, 25)  # l not square-free
    with pytest.raises(ValueError):
        es.CongruenceFrame(1, 1, 5, 35)  # (l, 6h) != 1
    fr = es.CongruenceFrame(2, 3, 1, 5)
    assert fr.a == 1 and fr.b == 1
    assert fr.split(10) == (5, 2, 1)
    assert fr.split(0) == (5, 0, 1)


def test_cal_E_examples():
    fr = es.CongruenceFrame(1, 1, 1, 5)
    assert abs(es.cal_E(fr, 0, 0) - 20) < 1e-12
    fr1 = es.CongruenceFrame(1, 1, 1, 1)
    assert abs(es.cal_E(fr1, 3, -2) - 1) < 1e-12
    c, d = es.E_arguments(fr, 1, 0)
    assert abs(es.cal_E(fr, 1, 0) - es.E_sum(c, d, 25)) < 1e-10


def test_exptrans_identity_sweep():
    for l, h in ((5, 1), (7, 5), (11, 1), (13, 7)):
        for k2, k3 in ((1, 1), (2, 1), (1, 3), (2, 3)):
            fr = es.CongruenceFrame(k2, k3, h, l)
            for m, n in ((0, 0), (1, 2), (-3, 3), (2, -1)):
                c, d = es.E_arguments(fr, m, n)
                dev = abs(es.cal_E(fr, m, n) - es.E_sum(c, d, l * l))
                assert dev < 1e-8 * l * l


def test_evaluate_E_explicit_examples():
    fr = es.CongruenceFrame(1, 1, 1, 5)
    assert es.evaluate_E_explicit(fr, 5, 1) == 0  # d = 5 does not divide 1
    assert abs(es.evaluate_E_explicit(fr, 0, 0) - 20) < 1e-12
    c, d = es.E_arguments(fr, 1, 1)
    dev = abs(es.evaluate_E_explicit(fr, 1, 1) - es.E_sum(c, d, 25))
    assert dev < 1e-9


@pytest.mark.parametrize("l", [1, 5, 7, 13, 35, 55])
def test_evaluate_E_explicit_vs_brute(l):
    rng = np.random.default_rng(l)
    for h in (1, 7):
        if math.gcd(l, 6 * h) != 1:
            continue
        fr = es.CongruenceFrame(1, 1, h, l)
        for _ in range(20):
            m = int(rng.integers(-2 * l, 2 * l + 1))
            n = int(rng.integers(-2 * l, 2 * l + 1))
            c, d = es.E_arguments(fr, m, n)
            dev = abs(
                es.evaluate_E_explicit(fr, m, n) - es.E_sum(c, d, l * l)
            )
            assert dev < 1e-8 * (l * l + 1), (l, h, m, n)


def test_gauss_f():
    assert es.gauss_f(4, 1) == es.gauss_f(0, 1) == 1
    assert abs(es.gauss_f(1, 5) - (math.sqrt(5) - 1)) < 1e-12
    assert abs(es.gauss_f(2, 35)) <= (math.sqrt(5) + 1) * (math.sqrt(7) + 1)
    for q in (3, 5, 7, 15, 21, 35):
        for c in range(1, q):
            if math.gcd(c, q) == 1:
                assert abs(es.gauss_f(c, q) - es.E_sum(0, c, q)) < 1e-9 * q
    with pytest.raises(ValueError):
        es.gauss_f(1, 4)
    with pytest.raises(ValueError):
        es.gauss_f(1, 9)


def test_kloosterman_flip():
    assert es.kloosterman_flip_check(1, 3, 5)
    assert es.kloosterman_flip_check(7, 1, 9)
    assert es.kloosterman_flip_check(2, 2, 3)
    with pytest.raises(ValueError):
        es.kloosterman_flip_check(1, 6, 9)


def test_lemma3():
    p = es.PhasePolynomial((2, 0, 2), 4)
    reduced = es.lemma3_reduce(p, 2)
    assert reduced == es.PhasePolynomial((1, 0, 1), 2)
    direct = es.raw_phase_sum(p)
    assert abs(direct - 2 * es.raw_phase_sum(reduced)) < 1e-12
    assert abs(direct - 4) < 1e-12

    # 2 does not divide c1: the sum is exactly 0
    assert es.lemma3_reduce(es.PhasePolynomial((1, 0, 2), 4), 2) is None
    assert abs(es.raw_phase_sum(es.PhasePolynomial((1, 0, 2), 4))) < 1e-12

    assert es.lemma3_reduce(p, 1) == p

    with pytest.raises(ValueError):
        es.lemma3_reduce(es.PhasePolynomial((0, 1, 2), 4), 2)  # 2 does not divide c2


def test_loxton_schmidt():
    r = es.loxton_schmidt(es.PhasePolynomial((0, 0, 1), 9))
    assert r.eta == 2 and r.semi_disc == 9
    assert abs(r.bound - 18.0) < 1e-12
    assert abs(r.sum_abs - 7.5963) < 1e-4 and r.holds
    r2 = es.loxton_schmidt(es.PhasePolynomial((1, 0, 1), 11))
    assert r2.eta == 1 and r2.holds
    r3 = es.loxton_schmidt(es.PhasePolynomial((3, 2), 12))  # quadratic phase
    assert r3.eta == 1 and r3.semi_disc == 1
    with pytest.raises(ValueError):
        es.loxton_schmidt(es.PhasePolynomial((5,), 7))


def test_loxton_random_never_violated():
    rng = np.random.default_rng(11)
    for _ in range(150):
        q = int(rng.integers(2, 400))
        r = es.loxton_schmidt(
            es.PhasePolynomial(
                (int(rng.integers(0, q)), int(rng.integers(0, q)), int(rng.integers(1, q))),
                q,
            )
        )
        assert r.holds


def test_F_explicit_matches_brute():
    for mt in (1, 5, 7, 25, -7):
        for u in (-5, -1, 0, 1, 3):
            ex = es.F_explicit(u, mt, 1, 1, 1)
            br = es.F_explicit_bruteforce(u, mt, 1, 1, 1)
            assert abs(ex - br) < 1e-9 * (mt * mt + 1)
    # no-root case gives exactly 0: x^2 = -3bar*4 = 2 (mod 5) is a non-residue
    assert es.F_explicit(4, 5, 1, 1, 1) == 0
    assert abs(es.F_explicit_bruteforce(4, 5, 1, 1, 1)) < 1e-12
    # u = 0 with square-free modulus: only the zero root
    assert abs(es.F_explicit(0, 35, 1, 1, 1) - 35) < 1e-12


def test_crt_split_check():
    # (k2, k3, h, d, l1, m*, mtilde, u); mtilde = 1 is the trivial factor
    for args in ((1, 1, 1, 5, 1, 1, 7, 1), (1, 1, 1, 5, 1, 1, 1, 0), (2, 3, 1, 5, 7, 2, 11, 3)):
        k2, k3, h, d, l1, mstar, mtilde, u = args
        modulus = k3**3 * h * d * mstar**2 * mtilde**2
        assert max(es.crt_split_check(*args)) <= 1e-8 * (modulus + 1), args
    with pytest.raises(ValueError):
        es.crt_split_check(1, 1, 1, 5, 5, 1, 7, 1)  # l1 shares a factor with d


def test_lemma1_ratio():
    # c = d = 0: |E(0, 0; q)| = phi(q) and (0, 0, q) = q, so phi(q) / (q d(q)^2)
    assert abs(es.lemma1_ratio(0, 0, 7) - 6 / 28) < 1e-12
    assert abs(es.lemma1_ratio(0, 0, 12) - 4 / 432) < 1e-12
    # (3, 6, 9) = 3 and d(9) = 3
    want = abs(es.E_sum(3, 6, 9)) / (math.sqrt(3) * 3 * 9)
    assert abs(es.lemma1_ratio(3, 6, 9) - want) < 1e-12
    # q = 1: E = 1, (c, d, 1) = 1 and d(1) = 1
    assert es.lemma1_ratio(5, 7, 1) == es.lemma1_ratio(0, 0, 1) == 1.0


def test_suite_details_pin_counts(suite_run):
    """The integer details of two expsum checks, at seed 0."""
    run = suite_run("expsum")
    assert run.check("F_explicit_vs_brute").detail == "142 empty-root cases"
    assert run.check("lemma3_500_random").detail == "324 zero certificates"


def test_multiplicativity():
    assert es.multiplicativity_check(1, 0, 3, 5) < 1e-12
    assert es.multiplicativity_check(4, -7, 9, 25) < 1e-10


def test_poisson_checks():
    assert es.poisson_selfdual_1d(1.3).delta < 1e-10
    r = es.poisson_check(es.CongruenceFrame(1, 1, 1, 5), 2.0)
    assert r.rel_delta < 1e-8
    r = es.poisson_check(es.CongruenceFrame(2, 3, 5, 7), 2.0)
    assert r.rel_delta < 1e-8


def test_poisson_second_check_smallest_frame():
    # (k2, k3, h, d, l1, X) = (1, 1, 1, 1, 1, 1): 67 I_eval calls
    r = es.poisson_second_check(1, 1, 1, 1, 1, 1.0)
    assert r.rel_delta < 1e-8


@pytest.mark.parametrize("frame", [(1, 1, 1, 5, 1, 1.0), (2, 3, 1, 1, 5, 1.5)])
def test_poisson_second_check_frames(frame):
    # d = 5 and l1 = 5: ~2 s each; (1, 1, 1, 5, 1, 1) reads 8e-8 if the
    # u-sum stops at 1e-12 of 1 + |total| instead of |total| (~1.7e-5)
    r = es.poisson_second_check(*frame)
    assert r.rel_delta < 1e-8
