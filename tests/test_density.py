from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from deltasieve import density as dn
from deltasieve.arith import primes_up_to


def test_sigma_examples():
    assert dn.sigma(4) == 8
    assert dn.sigma(9) == 27
    assert dn.sigma(25) == 45
    assert dn.sigma(1) == 1


def test_sigma_against_pair_loop():
    for q in (2, 3, 4, 6, 9, 12, 25, 49, 100):
        assert dn.sigma(q) == dn.sigma_pair_bruteforce(q)


@pytest.mark.parametrize("block", [1 << 16, 1000])
def test_pair_grid_row_blocks_match_sigma(block, monkeypatch):
    """The row blocks of the pair grid tile the alpha rows: a q spanning
    several blocks (the last one short) and a q within one block both
    give sigma(q), so a block that repeats or skips its boundary row
    fails."""
    monkeypatch.setattr(dn, "_PAIR_BLOCK", block)
    several = []
    for q in (961, 256, 31):
        several.append(q > max(1, block // q))
        assert dn.sigma_pair_bruteforce(q) == dn.sigma(q), (block, q)
    assert several[0] and not several[-1]


def test_pair_grid_matches_double_loop():
    for q in range(1, 61):
        n = sum(
            1 for a in range(q) for b in range(q) if (4 * a**3 + 27 * b**2) % q == 0
        )
        assert dn.sigma_pair_bruteforce(q) == n, q
    with pytest.raises(ValueError):
        dn.sigma_pair_bruteforce(1001)


def test_sigma_structured_path():
    for p in (5, 7, 11, 13, 31, 37, 101):
        s = dn.sigma_prime_square_structured(p)
        assert s == 2 * p * p - p
        if p <= 100:
            assert s == dn.sigma(p * p)
    with pytest.raises(ValueError):
        dn.sigma_prime_square_structured(3)






def test_per_prime_identity():
    assert dn.per_prime_identity(5)
    lhs = (Fraction(1) - Fraction(5, 121)) * (Fraction(1) - Fraction(4, 125))
    assert lhs == Fraction(116, 125) == Fraction(1) - Fraction(9, 125)
    for p in (7, 11, 101, 9973):
        assert dn.per_prime_identity(p)


def test_euler_product_segmented_walk(monkeypatch):
    """The walk over the prime bitmap gives the same result in segments of
    any width, many segments included."""
    want = [dn.euler_product(t, 10**5) for t in (1, 2)]
    monkeypatch.setattr(dn, "_SEGMENT", 1000)
    assert [dn.euler_product(t, 10**5) for t in (1, 2)] == want


def test_euler_product_intervals():
    e1 = dn.euler_product(1, 10**4)
    e2 = dn.euler_product(2, 10**4)
    assert e1.lo <= e1.value <= e1.hi
    assert e1.hi - e1.lo < 1e-9
    assert e1.lo <= e2.hi and e2.lo <= e1.hi
    wide = dn.euler_product(2, 5)
    assert wide.lo <= e2.value <= wide.hi
    assert wide.hi - wide.lo > e2.hi - e2.lo
    with pytest.raises(ValueError):
        dn.euler_product(3, 100)
    with pytest.raises(ValueError):
        dn.euler_product(1, 3)


def _euler_product_mpf(theorem: int, P: int, dps: int = 30) -> dn.EulerProductResult:
    """The mpf route to `euler_product`: one mpf factor per prime and a
    second prime loop subtracting the head sums from primezeta."""
    with mp.workdps(dps + 15):
        partial = mp.mpf(1) / 3 if theorem == 2 else mp.mpf(1)
        for p in primes_up_to(P):
            if theorem == 1:
                s = dn.sigma(p * p) if p <= 100 else 2 * p * p - p
                partial *= 1 - mp.mpf(s) / mp.mpf(p) ** 4
            elif p > 3:
                partial *= 1 - mp.mpf(2 * p - 1) / mp.mpf(p) ** 3
        z2 = mp.primezeta(2)
        z3 = mp.primezeta(3)
        for p in primes_up_to(P):
            z2 -= mp.mpf(1) / (p * p)
            z3 -= mp.mpf(1) / (p * p * p)
        main = 2 * z2 - z3
        rem_hi = mp.mpf("2.2") * (mp.mpf(1) / (3 * P**3) + mp.mpf(P) ** -4)
        slack = mp.mpf(10) ** (5 - dps)
        log_lo, log_hi = main - slack, main + rem_hi + slack
        hi = partial * mp.e ** (-log_lo)
        lo = partial * mp.e ** (-log_hi)
        value = (lo + hi) / 2
        return dn.EulerProductResult(
            float(partial), float(value), float((hi - lo) / 2), float(lo), float(hi)
        )


def _whole_divisor_walk(theorem: int, P: int, one: int) -> tuple[int, int, int]:
    """`density._fixed_point_walk` with one division per term, by p^4, p^3
    or p^2 whole."""
    num, head2, head3 = one, 0, 0
    for p in primes_up_to(P):
        p2 = p * p
        p3 = p2 * p
        if theorem == 1:
            s = dn.sigma(p2) if p <= 100 else 2 * p2 - p
            num -= num * s // (p2 * p2)
        elif p > 3:
            num -= num * (2 * p - 1) // p3
        head2 += one // p2
        head3 += one // p3
    return num, head2, head3


@pytest.mark.parametrize("P", [5, 100, 10**5])
def test_fixed_point_walk_matches_whole_divisors(P):
    # floor(floor(x / a) / b) = floor(x / (a b)): the same integers, bit for bit
    one = 1 << (4 * (dn.EULER_DPS + 15) + 64)
    for theorem in (1, 2):
        assert dn._fixed_point_walk(theorem, P, one) == _whole_divisor_walk(theorem, P, one)


@pytest.mark.parametrize("P", [5, 7, 100, 10**3, 10**4, 10**5, 10**6])
def test_euler_product_matches_mpf_route(P):
    for theorem in (1, 2):
        assert dn.euler_product(theorem, P) == _euler_product_mpf(theorem, P)


def test_mu_phi_series():
    s, prod, tail = dn.mu_phi_series(1, 10**4, 10**4)
    assert abs(s - prod) < 2e-4
    # every prime <= P dividing 6h: both sides collapse to 1
    s1, p1, _ = dn.mu_phi_series(105, 7, 100)
    assert p1 == 1.0
    assert abs(s1 - sum_series_check()) < 1e-12


def sum_series_check():
    # e coprime to 6*105 = 630, e <= 100: 11, 13, 17, ... mu phi / e^3
    import math

    from deltasieve.arith import euler_phi, mobius

    return sum(
        mobius(e) * euler_phi(e) / e**3
        for e in range(1, 101)
        if math.gcd(e, 630) == 1
    )


def test_balance_paper_point():
    res = dn.paper_balance()
    assert res.exponent == Fraction(184, 27)
    assert res.t == Fraction(124, 27) and res.kappa == Fraction(16, 31)
    assert res.grid_best >= 184 / 27 - 1e-6
    # the three active terms all equal 184/27 at the optimum
    vals = [t(dn.PAPER_T, dn.PAPER_KAPPA) for t in dn.paper_terms()]
    assert vals.count(Fraction(184, 27)) == 3
    assert max(vals) == Fraction(184, 27)


def test_balance_single_term():
    res = dn.balance_exponents([dn.ExponentTerm(Fraction(6))])
    assert res.exponent == 6


def _grid_oracle(terms):
    """(ts, best, best_k) of the balancer's float grid, every term
    evaluated at every kappa as c0 + ct t + ck kappa + ctk t kappa."""
    step = float(dn.BALANCE_STEP)
    ts = np.arange(step, float(dn.BALANCE_T_MAX) + step / 2, step)
    best = np.full(ts.shape, np.inf)
    best_k = np.zeros(ts.shape)
    consts = [(float(e.const), float(e.ct), float(e.ck), float(e.ctk)) for e in terms]
    for k in np.arange(step, 1.0, step):
        cur = np.full(ts.shape, -np.inf)
        for c0, ct, ck, ctk in consts:
            np.maximum(cur, c0 + ct * ts + ck * k + ctk * ts * k, out=cur)
        better = cur < best
        best[better] = cur[better]
        best_k[better] = k
    return ts, best, best_k


def _random_terms(seed):
    """Seven terms with small random rational coefficients; the first two
    have only ck and only ctk nonzero among the kappa coefficients, so
    neither goes to the kappa-free floor."""
    rng = np.random.default_rng(seed)

    def frac():
        return Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))

    terms = [
        dn.ExponentTerm(frac(), frac(), frac() or Fraction(1), Fraction(0)),
        dn.ExponentTerm(frac(), frac(), Fraction(0), frac() or Fraction(-1)),
    ]
    terms += [dn.ExponentTerm(frac(), frac(), frac(), frac()) for _ in range(5)]
    return terms


def test_balance_grid_matches_per_kappa_oracle():
    dropped = dn.paper_terms()
    del dropped[1]  # 16 - 2t
    for terms in (dn.paper_terms(), dropped, [dn.ExponentTerm(Fraction(6))], _random_terms(0)):
        ts, best, best_k = _grid_oracle(terms)
        # every grid value, not only the minimum, is the oracle's double
        got = dn._balance_grid(terms)
        assert all(np.array_equal(a, b) for a, b in zip(got, (ts, best, best_k))), terms
        i = int(np.argmin(best))
        res = dn.balance_exponents(terms)
        assert (res.grid_best, res.grid_t, res.grid_kappa) == (best[i], ts[i], best_k[i])


def test_balance_empty_terms():
    with pytest.raises(ValueError):
        dn.balance_exponents([])
