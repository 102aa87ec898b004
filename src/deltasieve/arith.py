"""Exact integer and modular arithmetic.

Everything here is deterministic and exact: Python integers are used
throughout, so products never overflow no matter the modulus (moduli are
still capped at 2**62 by the callers that promise that bound).

Conventions:
    mu(0) = 0 and mu(-n) = mu(n); rad(n) is the largest square-free
    divisor of |n|; eps_p = 1 for p = 1 (mod 4) and i for p = 3 (mod 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TRIAL_LIMIT = 10**6

# Deterministic Miller-Rabin witness set, valid for all n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NotInvertibleError(ValueError):
    """gcd(a, m) > 1 where an inverse was required."""


@dataclass(frozen=True)
class Residue:
    """An integer reduced into [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            object.__setattr__(self, "value", self.value % self.modulus)

    def __int__(self):
        return self.value


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization of a nonzero integer.

    ``factors`` lists (prime, exponent) with strictly increasing primes;
    the product of prime powers equals abs(n).
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("0 has no factorization")

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def radical(self) -> int:
        r = 1
        for p, _ in self.factors:
            r *= p
        return r

    @property
    def square_part(self) -> int:
        """Largest perfect square dividing abs(n)."""
        s = 1
        for p, e in self.factors:
            s *= p ** (e - (e % 2))
        return s

    @property
    def mobius(self) -> int:
        for _, e in self.factors:
            if e > 1:
                return 0
        return -1 if len(self.factors) % 2 else 1

    @property
    def phi(self) -> int:
        v = 1
        for p, e in self.factors:
            v *= (p - 1) * p ** (e - 1)
        return v

    def divisors(self) -> list[int]:
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by Eratosthenes."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 2**64 (inputs are capped there)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def factorize(n: int) -> Factorization:
    """Canonical factorization of n != 0 (trial division, then Pollard rho)."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    m = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        # wheel over 6k +- 1 up to the trial limit
        d = 7
        step = 4
        while d * d <= m and d < _TRIAL_LIMIT:
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
    return Factorization(n, tuple(sorted(factors.items())))


def mobius(n: int) -> int:
    """Mobius function with mu(0) = 0 and mu(-n) = mu(n)."""
    if n == 0:
        return 0
    if abs(n) == 1:
        return 1
    return factorize(n).mobius


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi needs n >= 1")
    if n == 1:
        return 1
    return factorize(n).phi


def rad_and_square_part(n: int) -> tuple[int, int]:
    """(largest square-free divisor, largest perfect-square divisor) of |n|."""
    if n == 0:
        raise ValueError("rad/square part undefined for 0")
    if abs(n) == 1:
        return 1, 1
    f = factorize(n)
    return f.radical, f.square_part


def omega(n: int) -> int:
    """Number of distinct prime factors of |n| (0 for +-1)."""
    if n == 0:
        raise ValueError("omega undefined for 0")
    if abs(n) == 1:
        return 0
    return factorize(n).omega


def is_squarefree(n: int) -> bool:
    return mobius(n) != 0


def mod_inverse(a: int, m: int) -> Residue:
    """r with a*r = 1 (mod m); raises NotInvertibleError if gcd(a, m) > 1."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if m == 1:
        return Residue(0, 1)
    try:
        return Residue(pow(a, -1, m), m)
    except ValueError as exc:
        raise NotInvertibleError(f"{a} is not invertible mod {m}") from exc


def crt(residues: list[tuple[int, int]]) -> Residue:
    """Combine pairwise-coprime congruences x = r_i (mod m_i)."""
    x, m = 0, 1
    for r, mi in residues:
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError("crt moduli must be pairwise coprime")
        # x' = x (mod m), x' = r (mod mi)
        t = (r - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return Residue(x % m, m)


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


def tonelli_shanks(a: int, p: int) -> int:
    """Smaller square root of a unit square a mod odd prime p.

    Deterministic: the non-residue is the smallest positive one.
    Raises ValueError when a is not a quadratic residue.
    """
    a %= p
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a QR mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def sqrt_mod_prime_power(a: int, p: int, k: int = 1) -> list[Residue]:
    """All x mod p**k with x*x = a (mod p**k), sorted; empty if none.

    p must be an odd prime.  Non-unit a is handled by splitting off the
    p-valuation; unit a by Tonelli-Shanks mod p plus Hensel lifting.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    pk = p**k
    a %= pk
    if a == 0:
        # x = 0 (mod p^ceil(k/2))
        step = p ** ((k + 1) // 2)
        return [Residue(x, pk) for x in range(0, pk, step)]
    v = 0
    aa = a
    while aa % p == 0:
        aa //= p
        v += 1
    if v % 2 == 1:
        return []
    # a = p^v * aa with aa a unit; roots are p^(v/2) * (y + j*p^(k-v))
    kk = k - v
    if pow(aa % p, (p - 1) // 2, p) != 1:
        return []
    y = tonelli_shanks(aa % p, p)
    for j in range(1, kk):
        pj = p ** (j + 1)
        fy = (y * y - aa) % pj
        y = (y - fy * pow(2 * y, -1, pj)) % pj
    half = p ** (v // 2)
    base = p ** kk
    roots = set()
    for y0 in (y, base - y):
        for j in range(half):
            roots.add(half * (y0 + j * base) % pk)
    return [Residue(x, pk) for x in sorted(roots)]


def sqrt_mod(a: int, m: int) -> list[Residue]:
    """All x mod m with x*x = a (mod m), for odd m, via factorization + CRT."""
    if m < 1 or m % 2 == 0:
        raise ValueError("sqrt_mod needs odd m >= 1")
    if m == 1:
        return [Residue(0, 1)]
    parts = []
    for p, e in factorize(m).factors:
        rs = sqrt_mod_prime_power(a, p, e)
        if not rs:
            return []
        parts.append([(r.value, p**e) for r in rs])
    roots = [(0, 1)]
    for part in parts:
        roots = [
            (crt([(x, mm), pr]).value, mm * pr[1]) for x, mm in roots for pr in part
        ]
    return [Residue(x, m) for x, _ in sorted(roots)]


def mobius_table(n: int) -> np.ndarray:
    """mu(0..n) as an int8 array (mu(0) = 0)."""
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    if n < 1:
        return mu
    prod = np.ones(n + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(n)):
        mu[p * p :: p * p] = 0
        mu[p::p] *= -1
        prod[p::p] *= p
    # a leftover cofactor > 1 is a single prime > sqrt(n)
    idx = np.arange(n + 1, dtype=np.int64)
    leftover = (prod != idx) & (mu != 0)
    leftover[0] = False
    mu[leftover] *= -1
    return mu


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
    idx = np.arange(lo, hi, dtype=np.int64)
    leftover = (prod != idx) & (mu != 0)
    if lo == 0:
        mu[0] = 0
        leftover[0] = False
        if n > 1:
            leftover[1] = False
    elif lo == 1:
        leftover[0] = False
    mu[leftover] *= -1
    return mu


def phi_table(n: int) -> np.ndarray:
    """phi(0..n) as int64 (phi(0) = 0)."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        phi[p::p] -= phi[p::p] // p
    if n >= 0:
        phi[0] = 0
    return phi
