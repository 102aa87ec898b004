"""Exact integer and modular arithmetic.

Everything here is deterministic and exact: Python integers are used
throughout, so products never overflow no matter the modulus (moduli are
still capped at 2**62 by the callers that promise that bound).

Conventions:
    factorize(n) is the sorted tuple of (p, e) pairs of |n|, () for |n| = 1;
    mu(0) = 0 and mu(-n) = mu(n); eps_p = 1 for p = 1 (mod 4) and i for
    p = 3 (mod 4).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Deterministic Miller-Rabin witness set, valid for all n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NotInvertibleError(ValueError):
    """gcd(a, m) > 1 where an inverse was required."""


def prime_sieve(n: int) -> np.ndarray:
    """is_prime[m] for 0 <= m <= n as one bool array (n + 1 bytes), by
    Eratosthenes."""
    sieve = np.ones(max(n + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve[: max(n + 1, 0)]


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by Eratosthenes."""
    return np.flatnonzero(prime_sieve(n)).tolist()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the twelve prime bases up to 37,
    exact below 2**64 (inputs are capped there)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # a composite below 41^2 has a prime factor <= 37
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent cycle, deterministic seeds)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")  # unreachable in practice


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of |n| for n != 0, by increasing prime
    (trial division, then Pollard rho); () for n = +-1."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    m = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        # wheel over 6k +- 1 below 2^32, where it ends by d <= 2^16; a
        # cofactor of 2^32 or more goes to the primality test and Pollard
        # rho at once, as the wheel could walk far to split or prove it
        d = 7
        step = 4
        while m < 2**32 and d * d <= m:
            if m % d == 0:
                while m % d == 0:
                    factors[d] = factors.get(d, 0) + 1
                    m //= d
            d += step
            step = 6 - step
        if m > 1:
            if d * d > m:
                factors[m] = factors.get(m, 0) + 1
            else:
                stack = [m]
                while stack:
                    v = stack.pop()
                    if is_prime(v):
                        factors[v] = factors.get(v, 0) + 1
                        continue
                    f = _pollard_rho(v)
                    stack.append(f)
                    stack.append(v // f)
    return tuple(sorted(factors.items()))


def mobius(n: int) -> int:
    """Mobius function with mu(0) = 0 and mu(-n) = mu(n)."""
    if n == 0:
        return 0
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi needs n >= 1")
    v = 1
    for p, e in factorize(n):
        v *= (p - 1) * p ** (e - 1)
    return v


def is_squarefree(n: int) -> bool:
    return mobius(n) != 0


def mod_inverse(a: int, m: int) -> int:
    """r in [0, m) with a*r = 1 (mod m); raises NotInvertibleError if
    gcd(a, m) > 1."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise NotInvertibleError(f"{a} is not invertible mod {m}") from exc


def crt(residues: list[tuple[int, int]]) -> int:
    """x in [0, prod m_i) with x = r_i (mod m_i), for pairwise-coprime m_i."""
    x, m = 0, 1
    for r, mi in residues:
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError("crt moduli must be pairwise coprime")
        # x' = x (mod m), x' = r (mod mi)
        t = (r - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return x % m


def legendre_eps(a: int, p: int) -> tuple[int, complex]:
    """Legendre symbol (a/p) and the quartic-sign constant eps_p.

    eps_p = 1 when p = 1 (mod 4), i when p = 3 (mod 4).
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    sym = pow(a % p, (p - 1) // 2, p)
    if sym == p - 1:
        sym = -1
    eps = 1 + 0j if p % 4 == 1 else 1j
    return sym, eps


@lru_cache(maxsize=256)
def _tonelli_constants(p: int) -> tuple[int, int, int]:
    """(q, s, z^q mod p) for the odd prime p, where p - 1 = q 2^s with q odd
    and z is the smallest quadratic non-residue mod p.

    Raises ValueError unless p is an odd prime, so a caller that needs the
    constants has its prime checked once per prime, not once per call."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return q, s, pow(z, q, p)


def _sqrt_unit(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, for a in [1, p), or None
    when a is a non-residue.

    Tonelli-Shanks as in Cohen, Alg. 1.5.1, from r = a^((q+1)/2) and
    t = a^q.  The same t decides the Legendre symbol: t has order 2^m
    with m < s exactly when a is a square, so a first squaring chain that
    needs all s steps means a non-residue.  For p = 3 (mod 4) (s = 1) the
    root is a^((p+1)/4), returned when t = 1.
    """
    q, s, c = _tonelli_constants(p)
    w = pow(a, (q - 1) // 2, p)
    r = w * a % p
    t = r * w % p
    m = s
    while t != 1:
        # t^(2^m) = 1, so the chain stops by i = m; each round lowers m
        t2, i = t, 0
        while t2 != 1 and i < m:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            return None
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def sqrt_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    """All x in [0, p**k) with x*x = a (mod p**k), sorted; empty if none.

    p must be an odd prime.  Non-unit a is handled by splitting off the
    p-valuation; unit a by Tonelli-Shanks mod p plus Hensel lifting.
    """
    _tonelli_constants(p)  # raises unless p is an odd prime
    if k < 1:
        raise ValueError("k must be >= 1")
    pk = p**k
    a %= pk
    if a == 0:
        # x = 0 (mod p^ceil(k/2))
        step = p ** ((k + 1) // 2)
        return list(range(0, pk, step))
    v = 0
    aa = a
    while aa % p == 0:
        aa //= p
        v += 1
    if v % 2 == 1:
        return []
    # a = p^v * aa with aa a unit; roots are p^(v/2) * (y + j*p^(k-v))
    kk = k - v
    y = _sqrt_unit(aa % p, p)
    if y is None:  # aa is not a square mod p
        return []
    for j in range(1, kk):
        pj = p ** (j + 1)
        fy = (y * y - aa) % pj
        y = (y - fy * pow(2 * y, -1, pj)) % pj
    if v == 0:  # a unit: the two roots y and p^k - y
        return [y, pk - y] if y < pk - y else [pk - y, y]
    half = p ** (v // 2)
    base = p ** kk
    # distinct and below p^k: y != base - y for odd p, and y0 + j base < half base
    return sorted(half * (y0 + j * base) for y0 in (y, base - y) for j in range(half))


def sqrt_mod(a: int, m: int) -> list[int]:
    """All x in [0, m) with x*x = a (mod m), sorted, for odd m, via
    factorization + CRT."""
    if m < 1 or m % 2 == 0:
        raise ValueError("sqrt_mod needs odd m >= 1")
    roots, mm = [0], 1
    for p, e in factorize(m):
        pe = p**e
        rs = sqrt_mod_prime_power(a, p, e)
        if not rs:
            return []
        roots = [crt([(x, mm), (r, pe)]) for x in roots for r in rs]
        mm *= pe
    return sorted(roots)


def mobius_table(n: int) -> np.ndarray:
    """mu(0..n) as an int8 array (mu(0) = 0)."""
    return mobius_range(0, n + 1)


def mobius_range(lo: int, hi: int) -> np.ndarray:
    """mu(lo..hi-1) by a segmented sieve; memory O(hi - lo + sqrt(hi))."""
    if lo < 0 or hi <= lo:
        raise ValueError("need 0 <= lo < hi")
    n = hi - lo
    mu = np.ones(n, dtype=np.int8)
    prod = np.ones(n, dtype=np.int64)
    for p in primes_up_to(math.isqrt(max(hi - 1, 0))):
        p2 = p * p
        mu[(-lo) % p2 :: p2] = 0
        mu[(-lo) % p :: p] *= -1
        prod[(-lo) % p :: p] *= p
    # a leftover cofactor > 1 is a single prime > sqrt(hi - 1)
    idx = np.arange(lo, hi, dtype=np.int64)
    mu[(prod != idx) & (mu != 0)] *= -1
    if lo == 0:
        mu[0] = 0
    return mu


def phi_table(n: int) -> np.ndarray:
    """phi(0..n) as int64 (phi(0) = 0)."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        phi[p::p] -= phi[p::p] // p
    if n >= 0:
        phi[0] = 0
    return phi
