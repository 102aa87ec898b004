"""Square-free counts of Delta = 4A^3 + 27B^2 over the box |A| <= X^4,
|B| <= X^6, plus the congruence counts S(X; k^2), the Mobius sieve
identity, the k > xi tail, and main-term comparisons.

Exactness strategy: per-A stripes are sieved by every prime
p <= sqrt(Delta_max); a surviving pair is certified square-free because
any square divisor of Delta has a prime factor at most sqrt(|Delta|).
The rows of A are cut into chunks; for each chunk:

  * 4 | Delta  iff  B is even            (column rule)
  * 9 | Delta  iff  3 | A                (whole stripes die)
  * p | A (5 <= p <= max |A|): p^2 | Delta iff p | B
  * otherwise the B-roots of 27 B^2 = -4 A^3 (mod p^2) come from the
    prime-blocked root kernel: each numpy call solves a block of primes
    times the chunk's live rows (at most _BLOCK pairs), one prime per
    row, by Tonelli-Shanks mod p with per-prime constants broadcast
    over the row, then a Hensel lift to p^2 whose inverse comes from the
    Legendre squaring chain.

Each process (the caller, or each pool worker) builds the per-prime
constants once and marks every chunk it handles in one reused buffer
of chunk_size stripes.  Pairs with Delta = 0 are excluded everywhere
(they lie in the 3 | A stripes, which the sieve kills anyway; the
exclusion is explicit).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

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
        if not (math.isfinite(self.X) and self.X > 0):
            raise ValueError(f"X must be positive and finite, got {self.X}")
        if self.mode == "exact" and self.X > MAX_EXACT_X:
            raise ValueError(f"exact mode guard: X <= {MAX_EXACT_X}")
        if self.mode == "smoothed" and self.X > 4:
            raise ValueError("smoothed mode guard: X <= 4")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")


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
# root kernel: one row per prime p >= 5, int64 products of residues mod p


class _Primes(NamedTuple):
    """Per-prime constants of the root kernel.  With p - 1 = q 2^s, q odd:
    h = (q - 1) / 2, zq = z^q for a quadratic non-residue z, and the
    inverses of 27 and 54 mod p."""

    p: np.ndarray
    h: np.ndarray
    s: np.ndarray
    zq: np.ndarray
    inv27: np.ndarray
    inv54: np.ndarray

    @classmethod
    def of(cls, ps) -> _Primes:
        p = np.asarray(ps, dtype=np.int64)
        low = (p - 1) & (1 - p)  # 2^s
        s = np.frexp(low.astype(np.float64))[1].astype(np.int64) - 1
        q = (p - 1) // low
        z = np.zeros_like(p)
        todo = np.arange(p.size)
        cand = 2
        while todo.size:
            pt = p[todo]
            base = np.full(todo.size, cand, dtype=np.int64)
            nonres = _powmod(base, (pt - 1) // 2, pt) == pt - 1
            z[todo[nonres]] = cand
            todo = todo[~nonres]
            cand += 1
        inv27 = _powmod(np.full(p.size, 27, dtype=np.int64), p - 2, p)
        return cls(p, (q - 1) // 2, s, _powmod(z, q, p), inv27, inv27 * ((p + 1) // 2) % p)

    def take(self, sel) -> _Primes:
        """The constants of the primes p[sel]."""
        return _Primes(*(f[sel] for f in self))


def _column(v: np.ndarray, ndim: int) -> np.ndarray:
    """v (one value per row) shaped to broadcast against an ndim-array."""
    return v.reshape(v.shape + (1,) * (ndim - 1))


def _powmod(base: np.ndarray, exp: np.ndarray, m: np.ndarray) -> np.ndarray:
    """base**exp % m, with one exponent exp[i] >= 0 and one modulus
    m[i] < 2^31 for each row base[i] of a 1-D or 2-D base."""
    mm = _column(m, base.ndim)
    b = base % mm
    r = np.ones_like(b)
    for k in range(int(exp.max(initial=0)).bit_length()):
        if k:
            b = b * b % mm
        sel = np.flatnonzero((exp >> k) & 1)
        r[sel] = r[sel] * b[sel] % mm[sel]
    return r


def _sqrt_mod_p_vec(x: np.ndarray, pr: _Primes):
    """Square roots mod p of x, where row i of x (1-D or 2-D, entries in
    [0, p)) belongs to the prime pr.p[i].

    Returns (i, r, xinv): the flat indices of the entries of x that are
    nonzero squares, a root r of each, and x^-1 mod p.  Tonelli-Shanks:
    w = x^h gives r = w x and tt = x^q = w^2 x; the Legendre symbol is
    tt^(2^(s-1)), and the same squaring chain gives
    x^-1 = x^(p-2) = w^2 prod_{j<s} tt^(2^j), whose last factor is 1
    for a square.
    """
    p = _column(pr.p, x.ndim)
    w = _powmod(x, pr.h, pr.p)
    xinv = w * w % p
    tt = xinv * x % p
    r = w * x % p
    chain = tt.copy()
    for j in range(int(pr.s.max(initial=1)) - 1):
        sel = np.flatnonzero(pr.s > j + 1)
        xinv[sel] = xinv[sel] * chain[sel] % p[sel]
        chain[sel] = chain[sel] * chain[sel] % p[sel]
    i = np.flatnonzero(chain.ravel() == 1)
    r, xinv, tt = r.ravel()[i], xinv.ravel()[i], tt.ravel()[i]
    act = np.flatnonzero(tt != 1)  # only where s >= 2
    if act.size:
        rows = i[act] // (x.size // pr.p.size)
        r[act] = _tonelli_steps(r[act], tt[act], pr.take(rows))
    return i, r, xinv


def _tonelli_steps(r: np.ndarray, tt: np.ndarray, pr: _Primes) -> np.ndarray:
    """The Tonelli-Shanks loop from r = x^((q+1)/2), tt = x^q != 1 (one
    prime per entry): returns a root of x."""
    p = pr.p
    c = pr.zq.copy()
    m = pr.s.copy()
    r = r.copy()
    tt = tt.copy()
    active = np.arange(r.size)
    smax = int(m.max(initial=0))
    # tt lies in the subgroup of order 2^m: at most m - 1 squarings reach 1,
    # and each round lowers m
    for _ in range(smax):
        if not active.size:
            return r
        pa = p[active]
        t2 = tt[active].copy()
        i = np.zeros(active.size, dtype=np.int64)
        unresolved = np.flatnonzero(t2 != 1)
        for _ in range(smax - 1):
            if not unresolved.size:
                break
            t2[unresolved] = t2[unresolved] ** 2 % pa[unresolved]
            i[unresolved] += 1
            unresolved = unresolved[t2[unresolved] != 1]
        e = m[active] - i - 1
        if unresolved.size or e.min() < 0:
            raise RuntimeError("Tonelli-Shanks: tt is not of order 2^i, i < m")
        b = c[active]
        for k in range(int(e.max(initial=0))):
            sel = np.flatnonzero(e > k)
            b[sel] = b[sel] ** 2 % pa[sel]
        r[active] = r[active] * b % pa
        cnew = b * b % pa
        c[active] = cnew
        tt[active] = tt[active] * cnew % pa
        m[active] = i
        active = active[tt[active] != 1]
    if active.size:
        raise RuntimeError(f"Tonelli-Shanks: no root after {smax} rounds")
    return r


def _lift_root(r: np.ndarray, xinv: np.ndarray, a3: np.ndarray, pr: _Primes) -> np.ndarray:
    """Hensel lift of a root r mod p of 27 B^2 + 4 A^3 (x = r^2, a3 = A^3)
    to the root r + p k mod p^2, with k = -(f(r) / p) (54 r)^-1 and
    (54 r)^-1 = r x^-1 / 54 mod p."""
    p = pr.p
    k = (-((27 * r * r + 4 * a3) // p)) % p * r % p * xinv % p * pr.inv54 % p
    return r + p * k


def _stripe_roots(a3: np.ndarray, pr: _Primes):
    """B-roots of 27 B^2 + 4 A^3 = 0 (mod p^2) for row i of a3 (shape
    (len(pr), k) or broadcastable to it) against the prime pr.p[i].

    Returns (i, R): flat indices into the (len(pr), k) grid of the pairs
    with p not dividing A that have roots, which are R and p^2 - R.
    Pairs with p | A get none here.
    """
    p = _column(pr.p, 2)
    x = (-4 * a3) % p * _column(pr.inv27, 2) % p  # B^2 = x (mod p)
    i, r, xinv = _sqrt_mod_p_vec(x, pr)
    rows = i // x.shape[1]
    a3i = np.broadcast_to(a3, x.shape).ravel()[i]
    return i, _lift_root(r, xinv, a3i, pr.take(rows))


def stripe_root_sets(As, ps) -> list[set[int]]:
    """For each pair (A, p), p >= 5 a prime not dividing A: the root
    kernel's B mod p^2 with 27 B^2 + 4 A^3 = 0 (mod p^2)."""
    A = np.asarray(As, dtype=np.int64)
    pr = _Primes.of(ps)
    i, R = _stripe_roots((A * A * A)[:, None], pr)
    sets = [set() for _ in range(A.size)]
    for j, root in zip(i.tolist(), R.tolist()):
        p2 = int(pr.p[j]) ** 2
        sets[j] = {root, p2 - root}
    return sets


# ---------------------------------------------------------------------------
# stripe sieve

# (prime, A) pairs solved per call of the root kernel: bounds its
# temporaries to a few hundred KiB
_BLOCK = 8192


class _StripeSieve:
    """One process's share of a count: the kernel constants of every prime
    5 <= p <= pmax and one mark buffer of `rows` stripes, reused for every
    chunk of A the process sieves."""

    def __init__(self, rows: int, Bmax: int, pmax: int, X: float, mode: str):
        self.Bmax, self.X, self.mode = Bmax, X, mode
        primes = _Primes.of(primes_up_to(pmax)[2:])
        # blocks of one s (mostly), in increasing p: s = 1 needs no
        # Tonelli-Shanks steps, and exponents of one block have similar length
        self.primes = primes.take(np.lexsort((primes.p, primes.s)))
        self.marked = np.empty((rows, 2 * Bmax + 1), dtype=bool)

    def mark(self, As: np.ndarray) -> np.ndarray:
        """Boolean matrix (len(As), 2*Bmax+1), a view of the buffer: True
        where some p <= pmax has p^2 | Delta(A, B), B = column - Bmax."""
        Bmax = self.Bmax
        L = 2 * Bmax + 1
        marked = self.marked[: As.size]
        marked[...] = False
        marked[As % 3 == 0, :] = True
        marked[:, Bmax % 2 :: 2] = True  # B even <=> 4 | Delta

        live = np.flatnonzero(As % 3 != 0)
        if live.size == 0:
            return marked
        A = As[live]
        a3 = A * A * A  # |A| <= X^4 <= 4096 so A^3 fits easily

        ps = self.primes.p
        small = ps[ps <= np.abs(A).max()]
        for pi, ai in zip(*np.nonzero(A % small[:, None] == 0)):
            p = int(small[pi])
            marked[live[ai], Bmax % p :: p] = True  # p | A: p^2 | Delta iff p | B

        step = max(1, _BLOCK // A.size)
        for lo in range(0, ps.size, step):
            pr = self.primes.take(slice(lo, lo + step))
            i, R = _stripe_roots(a3[None, :], pr)
            p2 = pr.p[i // A.size] ** 2
            rows = live[i % A.size]
            few = np.flatnonzero(p2 < L)  # several columns per root
            for j in few:
                q2, row, root = int(p2[j]), rows[j], int(R[j])
                marked[row, (root + Bmax) % q2 :: q2] = True
                marked[row, (q2 - root + Bmax) % q2 :: q2] = True
            for roots in (R, p2 - R):
                idx = (roots + Bmax) % p2
                ok = idx < L
                marked[rows[ok], idx[ok]] = True
        return marked

    def count(self, a_lo: int, a_hi: int) -> list[tuple]:
        """(A, survivors, sum B, sum B^2 mod 2^61-1[, weighted sum]) for each
        stripe a_lo <= A < a_hi."""
        As = np.arange(a_lo, a_hi, dtype=np.int64)
        marked = self.mark(As)
        w = gaussian_weight()
        out = []
        Bs = np.arange(-self.Bmax, self.Bmax + 1, dtype=np.int64)
        X, mode = self.X, self.mode
        for i, A in enumerate(As):
            # Delta = 0 needs (A, B) = (-3t^2, +-2t^3), so 3 | A: `mark` filled the row
            surv = Bs[~marked[i]]
            cnt = int(surv.size)
            bsum = int(surv.sum()) if cnt else 0
            b2 = int((surv * surv % (2**61 - 1)).sum() % (2**61 - 1)) if cnt else 0
            if mode == "smoothed":
                wsum = float(w.value(A / X**4) * np.sum(w.value(surv / X**6))) if cnt else 0.0
                out.append((int(A), cnt, bsum, b2, wsum))
            else:
                out.append((int(A), cnt, bsum, b2))
        return out


_worker_sieve: _StripeSieve | None = None  # set in each pool worker process


def _init_worker(*args):
    global _worker_sieve
    _worker_sieve = _StripeSieve(*args)


def _pool_chunk(bounds: tuple[int, int]) -> list[tuple]:
    return _worker_sieve.count(*bounds)


def _check_int64_headroom(Amax: int, pmax: int):
    """The kernel's int64 intermediates are below max(p^2, 27 p^2 + 4 |A|^3)
    (products of two residues mod p, and f(r) in the Hensel step)."""
    if 27 * pmax**2 + 4 * Amax**3 >= 2**63:
        raise ValueError(f"int64 headroom: 27 pmax^2 + 4 Amax^3 >= 2^63 (pmax = {pmax})")


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
    _check_int64_headroom(Amax, pmax)
    chunks = []
    lo = -Amax
    while lo <= Amax:
        hi = min(lo + cfg.chunk_size, Amax + 1)
        chunks.append((lo, hi))
        lo = hi
    args = (min(cfg.chunk_size, 2 * Amax + 1), Bmax, pmax, cfg.X, cfg.mode)
    workers = min(cfg.threads, os.cpu_count() or 1, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=args
        ) as pool:
            parts = list(pool.map(_pool_chunk, chunks))
    else:
        sieve = _StripeSieve(*args)
        parts = [sieve.count(lo, hi) for lo, hi in chunks]
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
    """The nonzero Delta over the box, flattened."""
    Amax, Bmax = int(math.floor(X**4)), int(math.floor(X**6))
    A = np.arange(-Amax, Amax + 1, dtype=np.int64)[:, None]
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)[None, :]
    d = 4 * A**3 + 27 * B**2
    return d[d != 0]


def S_term(X: float, k: int, grid: np.ndarray | None = None) -> int:
    """Box pairs with k^2 | Delta and Delta != 0."""
    d = _delta_grid(X) if grid is None else grid
    return int((d % (k * k) == 0).sum())


def mobius_sieve_identity(X: float) -> tuple[int, int, bool]:
    """exact_count(X) versus sum_k mu(k) S(X; k^2), exact integers."""
    if X > 3:
        raise ValueError("identity check capped at X <= 3")
    grid = _delta_grid(X)
    kmax = math.isqrt(int(np.abs(grid).max(initial=0)))
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
    kmax = math.isqrt(int(np.abs(grid).max(initial=0)))
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
