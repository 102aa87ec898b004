import math

import numpy as np
import pytest

from deltasieve import arith


def test_factorize_examples():
    assert arith.factorize(12).factors == ((2, 2), (3, 1))
    assert arith.factorize(-1).factors == ()
    m61 = 2**61 - 1
    assert arith.factorize(m61).factors == ((m61, 1),)
    with pytest.raises(ValueError):
        arith.factorize(0)


def test_factorize_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 10**12))
        f = arith.factorize(n)
        prod = 1
        for p, e in f.factors:
            assert arith.is_prime(p)
            prod *= p**e
        assert prod == n
        assert [p for p, _ in f.factors] == sorted({p for p, _ in f.factors})


def test_is_prime_matches_sieve():
    # covers the trial-division cutoff at 41^2 = 1681 on both sides
    primes = set(arith.primes_up_to(5000))
    assert [n for n in range(-5, 5001) if arith.is_prime(n)] == sorted(primes)


def test_mobius_conventions():
    assert arith.mobius(10) == 1
    assert arith.mobius(-12) == 0
    assert arith.mobius(0) == 0
    assert arith.mobius(1) == arith.mobius(-1) == 1
    for n in range(1, 200):
        assert arith.mobius(-n) == arith.mobius(n)


def test_mobius_table_matches_pointwise():
    mu = arith.mobius_table(3000)
    for n in range(3001):
        assert mu[n] == arith.mobius(n)


def test_mobius_range_segmented():
    mu = arith.mobius_table(5000)
    seg = arith.mobius_range(1234, 4321)
    assert np.array_equal(seg, mu[1234:4321])
    assert np.array_equal(arith.mobius_range(0, 10), mu[:10])


def test_mod_inverse():
    assert arith.mod_inverse(9, 25).value == 14
    assert arith.mod_inverse(25, 9).value == 4
    assert arith.mod_inverse(1, 17).value == 1
    with pytest.raises(arith.NotInvertibleError):
        arith.mod_inverse(6, 9)


def test_legendre_eps():
    sym, _ = arith.legendre_eps(2, 7)
    assert sym == 1
    assert arith.legendre_eps(0, 5)[0] == 0
    assert arith.legendre_eps(0, 5)[1] == 1
    assert arith.legendre_eps(0, 7)[1] == 1j
    with pytest.raises(ValueError):
        arith.legendre_eps(1, 9)
    with pytest.raises(ValueError):
        arith.legendre_eps(1, 2)


def test_sqrt_mod_prime_power_examples():
    assert [r.value for r in arith.sqrt_mod_prime_power(2, 7, 1)] == [3, 4]
    assert [r.value for r in arith.sqrt_mod_prime_power(0, 5, 2)] == [0, 5, 10, 15, 20]
    assert [r.value for r in arith.sqrt_mod_prime_power(6, 5, 2)] == [9, 16]
    assert arith.sqrt_mod_prime_power(2, 5, 1) == []


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2), (7, 2), (11, 1), (3, 4)])
def test_sqrt_mod_prime_power_exhaustive(p, k):
    m = p**k
    expected: dict[int, set[int]] = {}
    for x in range(m):
        expected.setdefault(x * x % m, set()).add(x)
    for a in range(m):
        got = {r.value for r in arith.sqrt_mod_prime_power(a, p, k)}
        assert got == expected.get(a, set())


def test_sqrt_mod_composite():
    roots = {r.value for r in arith.sqrt_mod(4, 45)}
    assert roots == {x for x in range(45) if x * x % 45 == 4}
    assert arith.sqrt_mod(2, 15) == []


def test_rad_and_square_part():
    assert arith.rad_and_square_part(72) == (6, 36)
    assert arith.rad_and_square_part(1) == (1, 1)
    assert arith.rad_and_square_part(-50) == (10, 25)
    with pytest.raises(ValueError):
        arith.rad_and_square_part(0)


def test_crt():
    r = arith.crt([(2, 3), (3, 5), (2, 7)])
    assert r.value % 3 == 2 and r.value % 5 == 3 and r.value % 7 == 2
    with pytest.raises(ValueError):
        arith.crt([(1, 4), (2, 6)])


def test_phi_table():
    phi = arith.phi_table(100)
    assert phi[1] == 1 and phi[10] == 4 and phi[97] == 96
    for n in range(1, 101):
        assert phi[n] == arith.euler_phi(n)


def test_mu2_detection_identity():
    n = 2000
    mu = arith.mobius_table(n)
    rhs = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, math.isqrt(n) + 1):
        rhs[k * k :: k * k] += int(mu[k])
    assert np.array_equal(rhs[1:], mu[1:].astype(np.int64) ** 2)
