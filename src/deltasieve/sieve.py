"""Square-free counts of Delta = 4A^3 + 27B^2 over the box |A| <= X^4,
|B| <= X^6, plus the congruence counts S(X; k^2), the Mobius sieve
identity, the k > xi tail, and main-term comparisons.

Exactness strategy: per-A stripes are sieved by every prime
p <= sqrt(Delta_max); a surviving pair is certified square-free because
any square divisor of Delta has a prime factor at most sqrt(|Delta|).
Stripe arithmetic is vectorized over A for each prime:

  * 4 | Delta  iff  B is even            (column rule)
  * 9 | Delta  iff  3 | A                (whole stripes die)
  * p | A (p >= 5): p^2 | Delta iff p | B
  * otherwise the B-roots of 27 B^2 = -4 A^3 (mod p^2) come from a
    vectorized Tonelli-Shanks mod p plus a Hensel lift to p^2.

Pairs with Delta = 0 are excluded everywhere (they lie in the 3 | A
stripes, which the sieve kills anyway; the exclusion is explicit).
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arith import mobius_table, primes_up_to
from .density import euler_product
from .weights import gaussian_weight

MAX_EXACT_X = 8.0
SMOOTHED_CUTOFF = 1e-14


def delta_value(A: int, B: int) -> int:
    """4 A^3 + 27 B^2 (the discriminant over -16)."""
    if abs(A) > 2**20 or abs(B) > 2**21:
        raise ValueError("delta_value guard: |A| <= 2^20, |B| <= 2^21")
    return 4 * A**3 + 27 * B**2


@dataclass(frozen=True)
class CountConfig:
    X: float
    mode: str = "exact"  # exact | smoothed
    threads: int = 1
    chunk_size: int = 256

    def __post_init__(self):
        if self.mode not in ("exact", "smoothed"):
            raise ValueError("mode must be exact or smoothed")
        if self.mode == "exact" and self.X > MAX_EXACT_X:
            raise ValueError(f"exact mode guard: X <= {MAX_EXACT_X}")
        if self.mode == "smoothed" and self.X > 4:
            raise ValueError("smoothed mode guard: X <= 4")
        if self.X <= 0:
            raise ValueError("X must be positive")


@dataclass(frozen=True)
class CountResult:
    X: float
    mode: str
    count: int | None
    weighted: float | None
    seconds: float
    nstripes: int
    stripe_digest: str
    stripe_summaries: tuple = field(repr=False, default=())


# ---------------------------------------------------------------------------
# vectorized modular kernels (int64-safe for p^2 < 2^41)


def _mulmod(a, b, m):
    """(a * b) % m elementwise for 0 <= a, b < m < 2^41."""
    hi = b >> 21
    lo = b & ((1 << 21) - 1)
    return ((a * hi % m) * (1 << 21) + a * lo) % m


def _powmod(base, exp: int, m: int):
    """base**exp % m elementwise for scalar exp, m < 2^31."""
    r = np.ones_like(base)
    b = base % m
    while exp:
        if exp & 1:
            r = r * b % m
        b = b * b % m
        exp >>= 1
    return r


def _sqrt_mod_p_vec(t: np.ndarray, p: int) -> np.ndarray:
    """Square roots mod p of an array of quadratic residues (unit t)."""
    if p % 4 == 3:
        return _powmod(t, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    r = _powmod(t, (q + 1) // 2, p)
    tt = _powmod(t, q, p)
    c = np.full(t.shape, pow(z, q, p), dtype=np.int64)
    m = np.full(t.shape, s, dtype=np.int64)
    active = np.flatnonzero(tt != 1)
    while active.size:
        t2 = tt[active].copy()
        i = np.zeros(active.size, dtype=np.int64)
        unresolved = t2 != 1
        while unresolved.any():
            t2[unresolved] = t2[unresolved] ** 2 % p
            i[unresolved] += 1
            unresolved = t2 != 1
        e = m[active] - i - 1
        b = c[active].copy()
        kmax = int(e.max(initial=0))
        for k in range(kmax):
            sel = e > k
            b[sel] = b[sel] ** 2 % p
        r[active] = r[active] * b % p
        cnew = b * b % p
        c[active] = cnew
        tt[active] = tt[active] * cnew % p
        m[active] = i
        active = active[tt[active] != 1]
    return r


def _lift_root(r: np.ndarray, t2: np.ndarray, p: int) -> np.ndarray:
    """Hensel lift of r (root mod p of x^2 = t2) to a root mod p^2."""
    p2 = p * p
    diff = (t2 - r * r) % p2
    k = (diff // p) % p
    inv2r = _powmod(2 * r % p, p - 2, p)
    return r + p * (k * inv2r % p)


# ---------------------------------------------------------------------------
# stripe sieve


def _mark_chunk(As: np.ndarray, Bmax: int, pmax: int) -> np.ndarray:
    """Boolean matrix (len(As), 2*Bmax+1): True where some p <= pmax has
    p^2 | Delta(A, B), B = column - Bmax."""
    L = 2 * Bmax + 1
    C = As.size
    marked = np.zeros((C, L), dtype=bool)
    marked[As % 3 == 0, :] = True
    marked[:, Bmax % 2 :: 2] = True  # B even <=> 4 | Delta

    live = np.flatnonzero(As % 3 != 0)
    if live.size == 0:
        return marked
    A = As[live].astype(np.int64)
    a3 = A * A * A  # |A| <= X^4 <= 4096 so A^3 fits easily

    for p in primes_up_to(pmax):
        if p < 5:
            continue
        p2 = p * p
        for row in np.flatnonzero(As % p == 0):
            marked[row, Bmax % p :: p] = True  # p | A: p^2 | Delta iff p | B
        act = np.flatnonzero(A % p != 0)
        if act.size == 0:
            continue
        t = _mulmod((-4 * a3[act]) % p2, np.int64(pow(27, -1, p2)), p2)
        tp = t % p
        ls = _powmod(tp, (p - 1) // 2, p)
        sol = np.flatnonzero(ls == 1)
        if sol.size == 0:
            continue
        r = _sqrt_mod_p_vec(tp[sol], p)
        r2 = _lift_root(r, t[sol], p)
        rows = live[act[sol]]
        if p2 < L:
            for row, root in zip(rows, r2):
                marked[row, (root + Bmax) % p2 :: p2] = True
                marked[row, (p2 - root + Bmax) % p2 :: p2] = True
        else:
            for roots in (r2, p2 - r2):
                idx = (roots + Bmax) % p2
                ok = idx < L
                marked[rows[ok], idx[ok]] = True
    return marked


def _chunk_worker(args):
    (a_lo, a_hi, Bmax, pmax, X, mode) = args
    As = np.arange(a_lo, a_hi, dtype=np.int64)
    marked = _mark_chunk(As, Bmax, pmax)
    w = gaussian_weight()
    out = []
    Bs = np.arange(-Bmax, Bmax + 1, dtype=np.int64)
    for i, A in enumerate(As):
        surv = Bs[~marked[i]]
        if surv.size:
            # Delta = 0 only at (A, B) = (-3t^2, +-2t^3); explicit exclusion
            dz = 4 * int(A) ** 3 + 27 * surv * surv != 0
            surv = surv[dz]
        cnt = int(surv.size)
        bsum = int(surv.sum()) if cnt else 0
        b2 = int((surv * surv % (2**61 - 1)).sum() % (2**61 - 1)) if cnt else 0
        if mode == "smoothed":
            wsum = float(w.value(A / X**4) * np.sum(w.value(surv / X**6))) if cnt else 0.0
            out.append((int(A), cnt, bsum, b2, wsum))
        else:
            out.append((int(A), cnt, bsum, b2))
    return out


def _box_bounds(cfg: CountConfig) -> tuple[int, int]:
    if cfg.mode == "exact":
        return int(math.floor(cfg.X**4)), int(math.floor(cfg.X**6))
    z = gaussian_weight().decay_radius(SMOOTHED_CUTOFF)
    return int(math.ceil(z * cfg.X**4)), int(math.ceil(z * cfg.X**6))


def _run_count(cfg: CountConfig) -> CountResult:
    t0 = time.perf_counter()
    Amax, Bmax = _box_bounds(cfg)
    dmax = 4 * Amax**3 + 27 * Bmax**2
    pmax = math.isqrt(dmax)
    chunks = []
    lo = -Amax
    while lo <= Amax:
        hi = min(lo + cfg.chunk_size, Amax + 1)
        chunks.append((lo, hi, Bmax, pmax, cfg.X, cfg.mode))
        lo = hi
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(_chunk_worker, chunks))
    else:
        parts = [_chunk_worker(c) for c in chunks]
    stripes = [row for part in parts for row in part]
    stripes.sort(key=lambda row: row[0])
    digest = hashlib.sha256(repr([row[:4] for row in stripes]).encode()).hexdigest()
    seconds = time.perf_counter() - t0
    if cfg.mode == "exact":
        total = sum(row[1] for row in stripes)
        return CountResult(
            cfg.X, cfg.mode, total, None, seconds, len(stripes), digest, tuple(stripes)
        )
    weighted = float(np.sum(np.array([row[4] for row in stripes])))
    return CountResult(
        cfg.X, cfg.mode, None, weighted, seconds, len(stripes), digest, tuple(stripes)
    )


def exact_count(cfg: CountConfig) -> CountResult:
    """Exact number of box pairs with Delta nonzero and square-free."""
    if cfg.mode != "exact":
        raise ValueError("exact_count needs mode='exact'")
    return _run_count(cfg)


def smoothed_count(cfg: CountConfig) -> CountResult:
    """Gaussian-weighted sum of mu^2(Delta) over the truncated box."""
    if cfg.mode != "smoothed":
        raise ValueError("smoothed_count needs mode='smoothed'")
    return _run_count(cfg)


# ---------------------------------------------------------------------------
# oracles (independent of the stripe sieve)


def naive_squarefree_count(X: float, chunk: int = 1 << 24) -> int:
    """Per-pair oracle: a square-free bitmap over the value range |Delta|.

    Marks multiples of p^2 for every prime p <= sqrt(Delta_max) in value
    space, then looks every box pair up.  Shares nothing with the stripe
    sieve except the prime list.
    """
    Amax, Bmax = int(math.floor(X**4)), int(math.floor(X**6))
    dmax = 4 * Amax**3 + 27 * Bmax**2
    ps = primes_up_to(math.isqrt(dmax))
    vals = []
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)
    d27 = 27 * B * B
    for A in range(-Amax, Amax + 1):
        d = 4 * A**3 + d27
        d = d[d != 0]
        vals.append(np.abs(d))
    allv = np.concatenate(vals)
    total = 0
    for lo in range(0, dmax + 1, chunk):
        hi = min(lo + chunk, dmax + 1)
        sf = np.ones(hi - lo, dtype=bool)
        for p in ps:
            p2 = p * p
            if p2 > hi:
                break
            start = (-lo) % p2
            sf[start :: p2] = False
        sel = (allv >= lo) & (allv < hi)
        total += int(sf[allv[sel] - lo].sum())
    return total


def naive_count_tiny(X: float) -> int:
    """Second oracle for tiny X: per-pair trial-division factorization."""
    from .arith import is_squarefree

    Amax, Bmax = int(math.floor(X**4)), int(math.floor(X**6))
    if (2 * Amax + 1) * (2 * Bmax + 1) > 10**6:
        raise ValueError("tiny oracle capped at 10^6 pairs")
    n = 0
    for A in range(-Amax, Amax + 1):
        for B in range(-Bmax, Bmax + 1):
            d = 4 * A**3 + 27 * B**2
            if d != 0 and is_squarefree(d):
                n += 1
    return n


def naive_weighted_sum(X: float) -> float:
    """Direct Gaussian-weighted oracle over the truncated box (value-bitmap mu^2)."""
    w = gaussian_weight()
    z = w.decay_radius(SMOOTHED_CUTOFF)
    Amax, Bmax = int(math.ceil(z * X**4)), int(math.ceil(z * X**6))
    dmax = 4 * Amax**3 + 27 * Bmax**2
    sf = np.ones(dmax + 1, dtype=bool)
    for p in primes_up_to(math.isqrt(dmax)):
        sf[p * p :: p * p] = False
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)
    wB = w.value(B / X**6)
    total = 0.0
    for A in range(-Amax, Amax + 1):
        d = 4 * A**3 + 27 * B * B
        keep = (d != 0) & sf[np.abs(d)]
        total += float(w.value(A / X**4) * np.sum(wB[keep]))
    return total


# ---------------------------------------------------------------------------
# S(X; k^2), the Mobius identity and the tail


def _delta_grid(X: float) -> np.ndarray:
    Amax, Bmax = int(math.floor(X**4)), int(math.floor(X**6))
    A = np.arange(-Amax, Amax + 1, dtype=np.int64)[:, None]
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)[None, :]
    return 4 * A**3 + 27 * B**2


def S_term(X: float, k: int, grid: np.ndarray | None = None) -> int:
    """Box pairs with k^2 | Delta and Delta != 0."""
    d = _delta_grid(X) if grid is None else grid
    k2 = k * k
    dmax = int(np.abs(d).max())
    if k2 > dmax:
        return 0
    return int(((d % k2 == 0) & (d != 0)).sum())


def mobius_sieve_identity(X: float) -> tuple[int, int, bool]:
    """exact_count(X) versus sum_k mu(k) S(X; k^2), exact integers."""
    if X > 3:
        raise ValueError("identity check capped at X <= 3")
    grid = _delta_grid(X)
    kmax = math.isqrt(int(np.abs(grid).max()))
    mu = mobius_table(kmax)
    rhs = 0
    for k in range(1, kmax + 1):
        if mu[k]:
            rhs += int(mu[k]) * S_term(X, k, grid)
    lhs = exact_count(CountConfig(X=X)).count
    return lhs, rhs, lhs == rhs


def tail_S2(X: float, xi: float) -> tuple[int, float]:
    """(sum_{k > xi} mu(k) S(X; k^2), the reference shape X^16 / xi^2)."""
    if X > 3:
        raise ValueError("tail computation capped at X <= 3")
    grid = _delta_grid(X)
    kmax = math.isqrt(int(np.abs(grid).max()))
    mu = mobius_table(max(kmax, 1))
    tail = 0
    for k in range(int(math.floor(xi)) + 1, kmax + 1):
        if mu[k]:
            tail += int(mu[k]) * S_term(X, k, grid)
    return tail, X**16 / xi**2


# ---------------------------------------------------------------------------
# main-term comparison


@dataclass(frozen=True)
class MainTermRow:
    X: float
    mode: str
    count_or_sum: float
    main_lo: float
    main_hi: float
    residual: float
    residual_over_X7: float
    seconds: float


MAIN_TERM_CSV_COLUMNS = (
    "X", "mode", "count_or_sum", "main_lo", "main_hi",
    "residual", "residual_over_X7", "seconds",
)


def compare_main_term(
    X_list: list[float],
    mode: str = "exact",
    threads: int = 1,
    prime_bound: int = 10**5,
) -> list[MainTermRow]:
    """count (or weighted sum) against the main term 4 C X^10 (C X^10 smoothed)."""
    const = euler_product(1, prime_bound)
    lead = 4.0 if mode == "exact" else 1.0
    rows = []
    for X in X_list:
        cfg = CountConfig(X=X, mode=mode, threads=threads)
        res = exact_count(cfg) if mode == "exact" else smoothed_count(cfg)
        val = float(res.count if mode == "exact" else res.weighted)
        main_lo = lead * const.lo * X**10
        main_hi = lead * const.hi * X**10
        residual = val - lead * const.value * X**10
        rows.append(
            MainTermRow(X, mode, val, main_lo, main_hi, residual, residual / X**7, res.seconds)
        )
    return rows
