import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasieve import arith


def test_factorize_examples():
    assert arith.factorize(12) == ((2, 2), (3, 1))
    assert type(arith.factorize(12)) is tuple
    assert arith.factorize(1) == arith.factorize(-1) == ()
    with pytest.raises(ValueError):
        arith.factorize(0)


def _lines_run(f, *args):
    """(f(*args), the number of lines run in f's own frame, not its callees')."""
    code, lines = f.__code__, [0]

    def local(frame, event, arg):
        lines[0] += event == "line"
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return f(*args), lines[0]
    finally:
        sys.settrace(None)


def test_factorize_stops_at_a_prime_cofactor(monkeypatch):
    # a prime cofactor >= 2^32 ends factorize before the 6k +- 1 wheel,
    # which would run ~10^6 lines up to the trial limit
    m61 = 2**61 - 1
    for n, f in ((m61, ((m61, 1),)), (6 * m61, ((2, 1), (3, 1), (m61, 1)))):
        got, lines = _lines_run(arith.factorize, n)
        assert got == f and lines < 100, (n, got, lines)
    # a composite cofactor >= 2^32 goes to Pollard rho without the wheel,
    # which would run ~10^6 lines before reaching its smaller prime
    rho, pollard_rho = [], arith._pollard_rho
    monkeypatch.setattr(arith, "_pollard_rho", lambda v: rho.append(v) or pollard_rho(v))
    n = (2**31 - 1) * 1000003
    got, lines = _lines_run(arith.factorize, n)
    assert got == ((1000003, 1), (2**31 - 1, 1)) and lines < 100, (got, lines)
    assert rho == [n]


def test_factorize_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 10**12))
        f = arith.factorize(n)
        prod = 1
        for p, e in f:
            assert arith.is_prime(p)
            prod *= p**e
        assert prod == n
        assert [p for p, _ in f] == sorted({p for p, _ in f})


def test_is_prime_matches_sieve():
    # covers the trial-division cutoff at 41^2 = 1681 and psi_1 = 2047
    primes = arith.primes_up_to(10**5)
    assert [n for n in range(-5, 10**5) if arith.is_prime(n)] == primes


# (psi_t, t): the smallest odd composite that is a strong pseudoprime to
# each of the first t prime bases (Pomerance-Selfridge-Wagstaff 1980,
# Jaeschke 1993); psi_8 = psi_7 and psi_10 = psi_11 = psi_9
PSI = [
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
]


def _strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("n, t", PSI)
def test_is_prime_rejects_psi_t(n, t):
    # psi_t fools the first t bases, so is_prime must test more of them
    assert sum(e for _, e in arith.factorize(n)) > 1
    assert all(_strong_probable_prime(n, a) for a in arith.primes_up_to(37)[:t])
    assert not arith.is_prime(n)


@pytest.mark.parametrize("center", [1373653, 25326001])
def test_is_prime_matches_sieve_near_psi(center):
    # sieve the window [lo, hi] alone by the primes up to sqrt(hi), all below lo
    lo, hi = center - 10**4, center + 10**4
    window = np.ones(hi - lo + 1, dtype=bool)
    for p in arith.primes_up_to(math.isqrt(hi)):
        window[-lo % p :: p] = False
    primes = (np.flatnonzero(window) + lo).tolist()
    assert [n for n in range(lo, hi + 1) if arith.is_prime(n)] == primes


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
    assert arith.mod_inverse(9, 25) == 14
    assert arith.mod_inverse(25, 9) == 4
    assert arith.mod_inverse(1, 17) == 1
    assert arith.mod_inverse(0, 1) == arith.mod_inverse(6, 1) == 0
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
    assert arith.sqrt_mod_prime_power(2, 7, 1) == [3, 4]
    assert arith.sqrt_mod_prime_power(0, 5, 2) == [0, 5, 10, 15, 20]
    assert arith.sqrt_mod_prime_power(6, 5, 2) == [9, 16]
    assert arith.sqrt_mod_prime_power(2, 5, 1) == []


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2), (7, 2), (11, 1), (3, 4)])
def test_sqrt_mod_prime_power_exhaustive(p, k):
    m = p**k
    expected: dict[int, set[int]] = {}
    for x in range(m):
        expected.setdefault(x * x % m, set()).add(x)
    for a in range(m):
        got = set(arith.sqrt_mod_prime_power(a, p, k))
        assert got == expected.get(a, set())


# primes with a long Tonelli-Shanks chain: p - 1 = q 2^s with s = 9, 12, 13, 16
LARGE_S_PRIMES = [7681, 12289, 40961, 65537]


@st.composite
def prime_power_radicand(draw):
    """(a, p, k): p an odd prime < 10^5 or one of LARGE_S_PRIMES, k <= 3 with
    p^k < 2^40, and a = p^v u mod p^k for a drawn valuation v <= k."""
    p = draw(
        st.one_of(
            st.sampled_from(LARGE_S_PRIMES), st.sampled_from(arith.primes_up_to(10**5)[1:])
        )
    )
    k = draw(st.integers(1, 3).filter(lambda k: p**k < 2**40))
    v = draw(st.integers(0, k))
    u = draw(st.integers(0, p**k - 1))
    return p**v * u % p**k, p, k


def _root_count(a: int, p: int, k: int) -> int:
    """Number of square roots of a mod p^k, from the valuation and Euler's
    criterion: p^floor(k/2) for a = 0; else 2 p^(v/2) when v = v_p(a) is
    even and a / p^v is a square mod p, and 0 otherwise."""
    if a == 0:
        return p ** (k // 2)
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2 or pow(a, (p - 1) // 2, p) != 1:
        return 0
    return 2 * p ** (v // 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(prime_power_radicand())
def test_sqrt_mod_prime_power_large_primes(case):
    a, p, k = case
    pk = p**k
    roots = arith.sqrt_mod_prime_power(a, p, k)
    assert all(r * r % pk == a for r in roots)
    assert roots == sorted(set(roots)) and all(0 <= r < pk for r in roots)
    assert len(roots) == _root_count(a, p, k)


def test_sqrt_mod_prime_power_rejects_non_primes():
    for p in (1, 2, 9, 15, 65535):
        with pytest.raises(ValueError):
            arith.sqrt_mod_prime_power(1, p, 1)
    with pytest.raises(ValueError):
        arith.sqrt_mod_prime_power(1, 7, 0)


def test_sqrt_mod_composite():
    assert arith.sqrt_mod(4, 45) == [x for x in range(45) if x * x % 45 == 4]
    assert arith.sqrt_mod(2, 15) == []
    assert arith.sqrt_mod(0, 1) == arith.sqrt_mod(5, 1) == [0]
    assert arith.euler_phi(1) == 1


def test_crt():
    r = arith.crt([(2, 3), (3, 5), (2, 7)])
    assert 0 <= r < 105 and r % 3 == 2 and r % 5 == 3 and r % 7 == 2
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
