"""Local densities sigma(q), the two Euler-product constants, the per-prime
collapse identity, and the final exponent balancer.

sigma(q) counts pairs (alpha, beta) mod q with 4 alpha^3 + 27 beta^2 = 0
(mod q).  For primes p > 3 the verified closed form is
sigma(p^2) = 2 p^2 - p, which makes the two main-term constants

    prod_p (1 - sigma(p^2)/p^4)   and   (1/3) prod_{p>3} (1 - (2p-1)/p^3)

equal (the p = 2, 3 factors contribute exactly 1/3).

`euler_product` runs its prime loop on integers scaled by 2^K, rounded
down at each step, and hands them to mpmath once.  Each is off by less
than (number of primes) units of 2^-K, below 2^-221 for P <= 10^8 at
dps = EULER_DPS = 30: far under the 10^(5 - dps) slack of the certified
tail interval and under mpmath's own dps + 15 working digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .arith import is_prime, mobius_table, phi_table, prime_sieve, primes_up_to
from .deadline import Deadline

SIGMA_CAP = 10**4
_SEGMENT = 1 << 20  # width of each step of the Euler product's walk over its prime bitmap
SIGMA_STRUCTURED_CAP = 500
_PAIR_BLOCK = 1 << 16  # pairs per block of rows of `sigma_pair_bruteforce`
EULER_DPS = 30  # decimal digits of the Euler product's certified interval


def sigma(q: int) -> int:
    """Exact count of (alpha, beta) mod q with 4 alpha^3 + 27 beta^2 = 0 (mod q).

    Enumerates all q^2 pairs, grouped by the value of 27 beta^2 mod q.
    """
    if q < 1 or q > SIGMA_CAP:
        raise ValueError(f"q out of range [1, {SIGMA_CAP}]")
    b = np.arange(q, dtype=np.int64)
    counts = np.bincount(27 * (b * b % q) % q, minlength=q)
    a3 = (-4 * (b * b % q * b % q)) % q
    return int(counts[a3].sum())


def sigma_pair_bruteforce(q: int) -> int:
    """Oracle for sigma(): the literal test (4 alpha^3 + 27 beta^2) % q == 0
    on every pair, over blocks of alpha rows of at most _PAIR_BLOCK pairs
    (int64 temporaries of about 0.5 MiB at q = 961, not one q x q grid).
    The values stay below 2^33 for q <= 1000, and nothing is shared with
    sigma()'s bincount grouping."""
    if q > 1000:
        raise ValueError("pair-grid oracle capped at q = 1000")
    a = np.arange(q, dtype=np.int64)
    b27 = 27 * a**2
    rows = max(1, _PAIR_BLOCK // q)
    return sum(
        int(np.count_nonzero((4 * a[lo : lo + rows, None] ** 3 + b27) % q == 0))
        for lo in range(0, q, rows)
    )


def sigma_prime_square_structured(p: int) -> int:
    """sigma(p^2) for p > 3 via the unit/cubic-residue structure.

    Pairs with p | alpha, p | beta all satisfy the congruence (p^2 of them);
    mixed pairs never do; unit pairs are counted per unit beta by the
    number of cube roots of -27 * inv(4) * beta^2 mod p^2 (cubing is a
    bijection for p = 2 mod 3, an Euler cube test for p = 1 mod 3).
    """
    if p <= 3 or p > SIGMA_STRUCTURED_CAP or not is_prime(p):
        raise ValueError(f"need a prime 3 < p <= {SIGMA_STRUCTURED_CAP}")
    p2 = p * p
    phi = p2 - p
    if p % 3 == 2:
        unit_pairs = phi
    else:
        c0 = -27 * pow(4, -1, p2) % p2
        exp = phi // 3
        unit_pairs = 0
        for beta in range(1, p2):
            if beta % p == 0:
                continue
            t = c0 * (beta * beta % p2) % p2
            if pow(t, exp, p2) == 1:
                unit_pairs += 3
    return p2 + unit_pairs


def per_prime_identity(p: int) -> bool:
    """(1 - p/(p^3-p+1)) (1 - (p-1)/p^3) = 1 - (2p-1)/p^3, exactly."""
    if p <= 3:
        raise ValueError("identity is for primes p > 3")
    lhs = (Fraction(1) - Fraction(p, p**3 - p + 1)) * (
        Fraction(1) - Fraction(p - 1, p**3)
    )
    return lhs == Fraction(1) - Fraction(2 * p - 1, p**3)


# ---------------------------------------------------------------------------
# Euler products


@dataclass(frozen=True)
class EulerProductResult:
    partial: float  # product over p <= prime_bound only
    value: float  # partial times the tail factor
    tail_bound: float  # half-width of the certified interval around value
    lo: float
    hi: float


def _tail_log_interval(P: int, head2: mp.mpf, head3: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """[lo, hi] enclosing -log prod_{p > P} (1 - (2p-1)/p^3).

    head2 and head3 are sum_{p <= P} p^-2 and p^-3.  The first-order part
    2 Z(2) - Z(3) (Z(s) = prime zeta tail past P, primezeta minus the
    head) is computed to working precision; the remainder sum of
    x^2/2/(1-x) terms is enclosed by 0 and an integral bound.
    """
    main = 2 * (mp.primezeta(2) - head2) - (mp.primezeta(3) - head3)
    # x_p = (2p-1)/p^3 < 2/p^2; sum_{p>P} x_p^2 / (2 (1-x_p)) <= 2.2 sum p^-4
    rem_hi = mp.mpf("2.2") * (mp.mpf(1) / (3 * P**3) + mp.mpf(P) ** -4)
    slack = mp.mpf(10) ** (5 - EULER_DPS)
    return main - slack, main + rem_hi + slack


def _fixed_point_walk(theorem: int, prime_bound: int, one: int) -> tuple[int, int, int]:
    """The prime loop of `euler_product`: (partial product, sum p^-2,
    sum p^-3) over p <= prime_bound, scaled by one = 2^K and rounded down
    at each step.  A DELTASIEVE_MAX_SECONDS guard started here is checked
    once per window of the prime bitmap.

    As floor(floor(x / a) / b) = floor(x / (a b)) for x >= 0, the integers
    equal those of dividing by p^4, p^2 and p^3 at once, but each division
    is by p alone, one digit of a Python int for p < 2^30."""
    deadline = Deadline()
    num, head2, head3 = one, 0, 0
    is_p = prime_sieve(prime_bound)
    for lo in range(0, prime_bound + 1, _SEGMENT):
        deadline.check()
        for p in (np.flatnonzero(is_p[lo : lo + _SEGMENT]) + lo).tolist():
            if theorem == 1:
                s = sigma(p * p) if p <= 100 else 2 * p * p - p
                num -= num * s // p // p // p // p
            elif p > 3:
                num -= num * (2 * p - 1) // p // p // p
            q = one // p // p
            head2 += q
            head3 += q // p
    return num, head2, head3


def euler_product(theorem: int, prime_bound: int) -> EulerProductResult:
    """The main-term constant as a certified interval.

    theorem 1: prod_{p <= P} (1 - sigma(p^2)/p^4), sigma by enumeration for
    p <= min(P, 100) and by the verified 2p^2 - p beyond.
    theorem 2: (1/3) prod_{3 < p <= P} (1 - (2p-1)/p^3).
    Both are completed by the same p > P tail factor.

    One prime loop keeps three fixed-point integers scaled by 2^K: the
    partial product and the heads sum_{p <= P} p^-2 and p^-3 of the
    tail's prime zeta sums.  Each step rounds down (the product's factor
    is at most 1, so its error does not grow), so each integer is off by
    less than (number of primes) units of 2^-K.  With dps = EULER_DPS,
    K = 4 (dps + 15) + 64 and at most 5.8e6 primes (P <= 10^8) that is
    below 2^-221, far under both the slack 10^(5 - dps) added to the tail
    interval and the dps + 15 working digits of the mpmath stage
    (primezeta, remainder bound, exp), where the integers become mpf once.

    The primes are read from one prime bitmap in 2^20-wide segments, so at
    P = 10^8 the 5.76 M primes never exist as one list of ints.  Each
    segment first checks the DELTASIEVE_MAX_SECONDS guard.
    """
    if theorem not in (1, 2):
        raise ValueError("theorem must be 1 or 2")
    if prime_bound < 5:
        raise ValueError("prime bound must be >= 5")
    K = 4 * (EULER_DPS + 15) + 64
    num, head2, head3 = _fixed_point_walk(theorem, prime_bound, 1 << K)
    with mp.workdps(EULER_DPS + 15):
        partial = mp.ldexp(mp.mpf(num), -K)
        if theorem == 2:
            partial /= 3
        log_lo, log_hi = _tail_log_interval(
            prime_bound, mp.ldexp(mp.mpf(head2), -K), mp.ldexp(mp.mpf(head3), -K)
        )
        hi = partial * mp.e ** (-log_lo)
        lo = partial * mp.e ** (-log_hi)
        value = (lo + hi) / 2
        return EulerProductResult(
            float(partial),
            float(value),
            float((hi - lo) / 2),
            float(lo),
            float(hi),
        )


def mu_phi_series(h: int, P: int, T: int) -> tuple[float, float, float]:
    """(series, product, tail_bound) for sum_{(e,6h)=1} mu(e) phi(e) / e^3.

    series: truncated at e <= T; product: prod_{p <= P, p not | 6h}
    (1 - (p-1)/p^3); tail_bound: sum_{e > T} e^-2 < 1/T plus the product
    deficit past P.
    """
    if T > 10**7:
        raise ValueError("T cap is 10^7")
    mu = mobius_table(T).astype(np.float64)
    phi = phi_table(T).astype(np.float64)
    e = np.arange(T + 1, dtype=np.float64)
    e[0] = 1.0
    keep = np.gcd(np.arange(T + 1, dtype=np.int64), 6 * h) == 1
    terms = np.where(keep, mu * phi / e**3, 0.0)
    series = float(np.sum(terms[1:]))
    product = 1.0
    for p in primes_up_to(P):
        if (6 * h) % p != 0:
            product *= 1.0 - (p - 1) / p**3
    tail = 1.0 / T + 2.0 / P
    return series, product, tail


# ---------------------------------------------------------------------------
# exponent balancing


@dataclass(frozen=True)
class ExponentTerm:
    """e(t, kappa) = const + ct * t + ck * kappa + ctk * t * kappa, exact."""

    const: Fraction
    ct: Fraction = Fraction(0)
    ck: Fraction = Fraction(0)
    ctk: Fraction = Fraction(0)

    def __call__(self, t: Fraction, kappa: Fraction) -> Fraction:
        return self.const + self.ct * t + self.ck * kappa + self.ctk * t * kappa


def paper_terms() -> list[ExponentTerm]:
    """The seven competing error exponents in X (with xi = X^t):

    6, 16 - 2t, 10 - t, 4 + t(1-kappa)/2, t(2-kappa),
    t(11/6 + kappa/6) - 2, 2t - 8/3.
    """
    F = Fraction
    return [
        ExponentTerm(F(6)),
        ExponentTerm(F(16), F(-2)),
        ExponentTerm(F(10), F(-1)),
        ExponentTerm(F(4), F(1, 2), F(0), F(-1, 2)),
        ExponentTerm(F(0), F(2), F(0), F(-1)),
        ExponentTerm(F(-2), F(11, 6), F(0), F(1, 6)),
        ExponentTerm(F(-8, 3), F(2)),
    ]


PAPER_T = Fraction(124, 27)
PAPER_KAPPA = Fraction(16, 31)
PAPER_EXPONENT = Fraction(184, 27)  # = 7 - 5/27

# the balancer's search box 0 < t <= BALANCE_T_MAX and its grid step
BALANCE_T_MAX = Fraction(10)
BALANCE_STEP = Fraction(1, 1000)


@dataclass(frozen=True)
class BalanceResult:
    t: Fraction
    kappa: Fraction
    exponent: Fraction
    grid_best: float
    grid_t: float
    grid_kappa: float


def balance_exponents(
    terms: list[ExponentTerm], start: tuple[Fraction, Fraction] | None = None
) -> BalanceResult:
    """Minimax of max_i e_i(t, kappa) over 0 < t <= BALANCE_T_MAX, 0 < kappa < 1.

    A float grid at BALANCE_STEP locates the minimum; the winner (and the
    analytic point, when given as ``start``) is re-evaluated exactly in
    rational arithmetic.
    """
    if not terms:
        raise ValueError("need at least one term")
    ts, best, best_k = _balance_grid(terms)
    i = int(np.argmin(best))
    grid_best, grid_t, grid_kappa = float(best[i]), float(ts[i]), float(best_k[i])
    if start is not None:
        t0, k0 = start
    else:
        t0 = Fraction(round(grid_t / float(BALANCE_STEP))) * BALANCE_STEP
        k0 = Fraction(round(grid_kappa / float(BALANCE_STEP))) * BALANCE_STEP
    exact = max(term(t0, k0) for term in terms)
    return BalanceResult(t0, k0, exact, grid_best, grid_t, grid_kappa)


def _balance_grid(terms: list[ExponentTerm]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ts, best, best_k): the t grid, and per t the least max_i e_i over
    the kappa grid with the first kappa that attains it."""
    step = float(BALANCE_STEP)
    ts = np.arange(step, float(BALANCE_T_MAX) + step / 2, step)
    ks = np.arange(step, 1.0, step)
    best = np.full(ts.shape, np.inf)
    best_k = np.zeros(ts.shape)
    # each grid value is ((c0 + ct t) + ck k) + (ctk t) k; the parts in t
    # alone are built once, and the terms free of kappa are one floor in t
    floor = np.full(ts.shape, -np.inf)
    sloped = []
    for e in terms:
        c0, ct, ck, ctk = float(e.const), float(e.ct), float(e.ck), float(e.ctk)
        if ck == ctk == 0:
            np.maximum(floor, c0 + ct * ts, out=floor)
        else:
            sloped.append((c0 + ct * ts, ck, ctk * ts))
    # sweep kappa; keep the best kappa per t (memory stays O(grid))
    for k in ks:
        cur = floor.copy()
        for base, ck, slope in sloped:
            np.maximum(cur, base + ck * k + slope * k, out=cur)
        better = cur < best
        best[better] = cur[better]
        best_k[better] = k
    return ts, best, best_k


def paper_balance() -> BalanceResult:
    """The paper preset, evaluated exactly at (t, kappa) = (124/27, 16/31);
    the grid fields give the grid's minimum beside it."""
    return balance_exponents(paper_terms(), start=(PAPER_T, PAPER_KAPPA))
