"""Square-free counts of Delta = 4A^3 + 27B^2 over the box |A| <= X^4,
|B| <= X^6, plus the congruence counts S(X; k^2), the Mobius sieve
identity, the k > xi tail, and main-term comparisons.

Exactness strategy: every stripe (one A, all B) is sieved by every prime
p <= sqrt(Delta_max); a surviving pair is certified square-free because
any square divisor of Delta has a prime factor at most sqrt(|Delta|).
The primes 2 and 3 decide by congruence alone, and their rules are the
domain of the sieve, not marks in it:

  * 4 | Delta  iff  B is even            (only odd B are sieved)
  * 9 | Delta  iff  3 | A                (those stripes are not sieved:
                                          they die whole, and hold every
                                          Delta = 0 pair)

On that domain Delta is prime to 6, and for p >= 5:

  * p | A: p^2 | Delta iff p | B
  * otherwise p^2 | Delta iff B is one of the two roots mod p^2 of
    27 B^2 + 4 A^3, which lie over the cusp roots mod p,
    B = +-(2A/9) sqrt(-3A): the points (-3t^2, 2t^3) where Delta = 0.

A count runs in two stages.

Stage 1 (roots) works on blocks of the primes 5 <= p < P = L // 12,
L = 2 Bmax + 1.  Per block it takes square roots mod p only of the
primes l <= max |A| and of +-3, twisted so that every l has one:
rho(l)^2 = l z^f, z the prime's fixed non-residue and f the Legendre
bit, in one Tonelli-Shanks pass (`_twisted_roots`).  The other needed n
follow by one product each along n = spf(n) (n / spf(n)) (`_root_table`).
As sqrt(-3A) = sqrt(-+3) sqrt(|A|), a stripe's cusp root mod p is one
product on that table (`_cusp_roots`), lifted to p^2 (`_lift_root`);
it is 0 exactly where p | A.  The stage emits progressions of B, 0 mod p
where p | A and root mod p^2 where p^2 < L, as (stripe, first odd-B cell,
stride), and hits (stripe, odd B) for the roots mod the larger p^2.

The primes p >= P go by the cofactor, as the k > xi tail passes to the
complementary factor (`_RootStage.cofactor`).  On the domain, Delta = 3
or 7 (mod 8) and 3 does not divide Delta, so p^2 | Delta means
Delta = k p^2 with such a k and |k| <= Delta_max / P^2, whether p | A or
not.  As B^2 = 1 (mod 8), a stripe's Delta lie in one of 12 classes mod
216, 4 A^3 + 27.  Each k p^2 of its class in 4 A^3 + [27, 27 Bmax^2]
gives one candidate B = +-sqrt((k p^2 - 4 A^3) / 27), a hit when integer.

Stage 2 (rows) marks one stripe at a time in a reused buffer of its W
odd B (`_mark_row`): a progression is one stride from its first cell,
and a hit is one cell.  There is no B = 0 cell, so cell i mirrors cell
W - 1 - i (B -> -B), which fixes Delta: a row that is not its own mirror
is refused, naming its stripe.  Each row then reduces over its half
B > 0 to (2 count, sum B = 0, 2 sum B^2), with a precomputed B^2
column; a 3 | A stripe is (A, 0, 0, 0).

Stripes are sieved apart, so a pool splits the box by stripes: each of
its workers runs both stages on the A with |A| = k (mod workers), both
signs, and the rows are put back in A order.  Counts, stripe digests and
smoothed sums do not depend on the number of workers.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .arith import mobius_table, primes_up_to
from .deadline import Deadline
from .density import euler_product
from .weights import decay_radius, gauss

MAX_EXACT_X = 8.0
SMOOTHED_CUTOFF = 1e-14
MAIN_TERM_P = 10**5  # the prime bound of the main term's Euler product


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

    def __post_init__(self):
        if self.mode not in ("exact", "smoothed"):
            raise ValueError("mode must be exact or smoothed")
        # below 1 the exact box holds (0, 0) alone and smoothed weights underflow
        if not (math.isfinite(self.X) and self.X >= 1):
            raise ValueError(f"X must be finite and >= 1, got {self.X}")
        if self.mode == "exact" and self.X > MAX_EXACT_X:
            raise ValueError(f"exact mode guard: X <= {MAX_EXACT_X}")
        if self.mode == "smoothed" and self.X > 4:
            raise ValueError("smoothed mode guard: X <= 4")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class CountResult:
    X: float
    mode: str
    count: int | None
    weighted: float | None
    nstripes: int
    stripe_digest: str
    stripe_summaries: tuple = field(repr=False, default=())


# ---------------------------------------------------------------------------
# root kernel: one row per prime p >= 5, int64 products of residues mod p


class _Primes(NamedTuple):
    """Per-prime constants of the root kernel.  With p - 1 = q 2^s, q odd:
    h = (q - 1) / 2, the least quadratic non-residue z with zh = z^h,
    zq = z^q and zinv = z^-1, and the residues 2/9, -27/4 and 1/54 mod p."""

    p: np.ndarray
    h: np.ndarray
    s: np.ndarray
    z: np.ndarray
    zh: np.ndarray
    zq: np.ndarray
    zinv: np.ndarray
    two9: np.ndarray
    m27_4: np.ndarray
    inv54: np.ndarray

    @classmethod
    def of(cls, ps) -> _Primes:
        p = np.asarray(ps, dtype=np.int64)
        low = (p - 1) & (1 - p)  # 2^s
        s = np.frexp(low.astype(np.float64))[1].astype(np.int64) - 1
        q = (p - 1) // low
        h = (q - 1) // 2
        z = _least_nonresidue(p)
        zh = _powmod(z, h, p)
        inv2 = (p + 1) // 2
        inv27, zinv = _powmod(np.stack([np.full_like(p, 27), z], axis=1), p - 2, p).T
        return cls(
            p, h, s, z, zh, zh * zh % p * z % p, zinv,
            6 * inv27 % p, (p - 27) * inv2 % p * inv2 % p, inv27 * inv2 % p,
        )

    def take(self, sel) -> _Primes:
        """The constants of the primes p[sel]."""
        return _Primes(*(f[sel] for f in self))


def _least_nonresidue(p: np.ndarray) -> np.ndarray:
    """The least quadratic non-residue mod each odd prime p >= 5.  It is a
    prime l < sqrt(p) + 1, found by reciprocity from p mod 8 (l = 2) or
    from a table of the squares mod l: (l/p) = (p/l), negated when
    p = l = 3 (mod 4)."""
    z = np.zeros_like(p)
    todo = np.arange(p.size)
    for ell in primes_up_to(math.isqrt(int(p.max(initial=5))) + 1):
        pt = p[todo]
        if ell == 2:
            nonres = (pt % 8 == 3) | (pt % 8 == 5)
        else:
            square = np.zeros(ell, dtype=bool)
            square[np.arange(1, ell) ** 2 % ell] = True
            nonres = square[pt % ell] == ((pt % 4 == 3) & (ell % 4 == 3))
            nonres &= pt != ell
        z[todo[nonres]] = ell
        todo = todo[~nonres]
        if not todo.size:
            break
    return z


def _powmod(base: np.ndarray, exp: np.ndarray, m: np.ndarray) -> np.ndarray:
    """base**exp % m, with one exponent exp[i] >= 0 and one modulus
    m[i] < 2^31 for each row base[i] of a 1-D or 2-D base."""
    mm = m.reshape(m.shape + (1,) * (base.ndim - 1))
    b = base % mm
    r = np.ones_like(b)
    for k in range(int(exp.max(initial=0)).bit_length()):
        if k:
            b = b * b % mm
        sel = np.flatnonzero((exp >> k) & 1)
        r[sel] = r[sel] * b[sel] % mm[sel]
    return r


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


def _lift_root(r, xinv, a3, p, inv54) -> np.ndarray:
    """Hensel lift of a root r mod p of 27 B^2 + 4 A^3 (x = r^2, a3 = A^3)
    to the root r + p k mod p^2, with k = -(f(r) / p) (54 r)^-1 and
    (54 r)^-1 = r x^-1 / 54 mod p (inv54 = 1/54 mod p)."""
    k = (-((27 * r * r + 4 * a3) // p)) % p * r % p * xinv % p * inv54 % p
    return r + p * k


def _twisted_roots(x: np.ndarray, pr: _Primes):
    """Twisted square roots of the 2-D x (row i against pr.p[i], entries
    in [0, p)): (rho, f, inv) with f the Legendre bit (x a non-residue),
    rho^2 = x z^f and inv = x^-1 mod p.  All three are 0 where x = 0.

    One Tonelli-Shanks pass: w = x^h gives tt = x^q = w^2 x, and the
    squaring chain of tt gives both the Legendre symbol tt^(2^(s-1)) and
    w^2 prod_{j<s-1} tt^(2^j) = x^((p-1)/2 - 1), which is x^-1 for a
    square and -x^-1 for a non-residue.  A non-residue is then twisted in
    place to x z, with (x z)^h = w z^h and (x z)^q = tt z^q, and one run of
    `_tonelli_steps` from r = w x finishes every entry."""
    p = pr.p[:, None]
    w = _powmod(x, pr.h, pr.p)
    inv = w * w % p
    tt = inv * x % p
    chain = tt.copy()
    for j in range(int(pr.s.max(initial=1)) - 1):
        sel = np.flatnonzero(pr.s > j + 1)
        inv[sel] = inv[sel] * chain[sel] % p[sel]
        chain[sel] = chain[sel] * chain[sel] % p[sel]
    f = chain == p - 1
    inv = np.where(f, p - inv, inv)
    x = np.where(f, x * pr.z[:, None] % p, x)
    w = np.where(f, w * pr.zh[:, None] % p, w)
    tt = np.where(f, tt * pr.zq[:, None] % p, tt)
    rho = w * x % p
    k = np.flatnonzero((tt != 1) & (x != 0))  # only where s >= 2
    if k.size:
        rho.flat[k] = _tonelli_steps(rho.flat[k], tt.flat[k], pr.take(k // x.shape[1]))
    return rho, f, inv


def _spf_table(n: int) -> np.ndarray:
    """spf[m] = the smallest prime factor of m for 2 <= m <= n (spf[1] = 1)."""
    spf = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(n)):
        seg = spf[p * p :: p]
        seg[seg == np.arange(p * p, n + 1, p)] = p
    return spf


class _Plan(NamedTuple):
    """The columns of the root tables of one set of stripes.

    n: the column values, increasing, n[0] = 1: every |A| of the stripes,
    closed under m -> spf(m), m / spf(m).  ell: the columns of the primes.
    layers: for each Omega >= 2, the columns m of that Omega with the
    columns of spf(m) and m / spf(m).  rows[0 | 1, c]: the stripe of
    A = +n[c] | -n[c], or -1."""

    n: np.ndarray
    ell: np.ndarray
    layers: tuple
    rows: np.ndarray

    @classmethod
    def of(cls, As, ids) -> _Plan:
        """The plan of the nonzero A = As[k], stripe ids[k]."""
        A = np.asarray(As, dtype=np.int64)
        a = np.abs(A)
        spf = _spf_table(int(a.max(initial=1)))
        need = np.zeros(spf.size, dtype=bool)
        need[1] = True
        need[a] = True
        m = np.flatnonzero(need & (spf < np.arange(spf.size)))
        while m.size:  # composites whose factors may not be needed yet
            need[spf[m]] = True
            m = m // spf[m]
            m = m[~need[m]]
            need[m] = True
            m = m[spf[m] < m]
        n = np.flatnonzero(need)
        col = np.full(spf.size, -1, dtype=np.int64)
        col[n] = np.arange(n.size)
        omega = np.zeros(spf.size, dtype=np.int64)
        for v in n[1:].tolist():
            omega[v] = omega[v // spf[v]] + 1
        om = omega[n]
        layers = tuple(
            (col[v], col[spf[v]], col[v // spf[v]])
            for k in range(2, int(om.max(initial=0)) + 1)
            for v in [n[om == k]]
        )
        rows = np.full((2, n.size), -1, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        rows[0, col[a[A > 0]]] = ids[A > 0]
        rows[1, col[a[A < 0]]] = ids[A < 0]
        return cls(n, col[n[om == 1]], layers, rows)


class _Table(NamedTuple):
    """The root table of one prime block (rows) against a plan (columns).

    rho, f: twisted roots, rho(n)^2 = n z^f mod p with f the Legendre bit
    of n (rho = 0 exactly where p | n); t = n rho(n) mod p; inv = n^-1 mod p.
    cusp[s], fcusp[s] for A = +n (s = 0) and A = -n (s = 1): the cusp root
    of a stripe is cusp[s] t(n) when f(n) = fcusp[s], the Legendre bit of
    -3 (s = 0) or 3 (s = 1)."""

    rho: np.ndarray
    f: np.ndarray
    t: np.ndarray
    inv: np.ndarray
    cusp: np.ndarray
    fcusp: np.ndarray


def _root_table(pr: _Primes, plan: _Plan) -> _Table:
    """Twisted roots of the primes l in the plan and of -3, 3 by
    `_twisted_roots`, then of each composite m = l m' by
    rho(m) = rho(l) rho(m') / z^(f(l) f(m')), one layer of Omega at a time.
    The cusp constants are (+-2/9) rho(-+3) / z^f(-+3), so that
    (cusp t)^2 = (4/81) (-3A) A^2 = -4 A^3 / 27 for A = +-n."""
    p = pr.p[:, None]
    k = plan.ell.size
    x = np.concatenate([plan.n[plan.ell], [-3, 3]]) % p
    rl, fl, il = _twisted_roots(x, pr)
    rho = np.empty((pr.p.size, plan.n.size), dtype=np.int64)
    f = np.empty(rho.shape, dtype=bool)
    rho[:, 0], f[:, 0] = 1, False
    rho[:, plan.ell], f[:, plan.ell] = rl[:, :k], fl[:, :k]
    inv = np.empty_like(rho)
    inv[:, 0] = 1
    inv[:, plan.ell] = il[:, :k]
    zinv = pr.zinv[:, None]
    for cols, a, b in plan.layers:
        fa, fb = f[:, a], f[:, b]
        r = rho[:, a] * rho[:, b] % p
        rho[:, cols] = np.where(fa & fb, r * zinv % p, r)
        f[:, cols] = fa ^ fb
        inv[:, cols] = inv[:, a] * inv[:, b] % p
    r3, f3 = rl[:, k:].T, fl[:, k:].T
    c = np.array([[1], [-1]]) * pr.two9 % pr.p * r3 % pr.p
    cusp = np.where(f3, c * pr.zinv % pr.p, c)
    return _Table(rho, f, plan.n * rho % p, inv, cusp, f3)


def _cusp_roots(tab: _Table, pr: _Primes, s: int):
    """(B0, ok) over the table for A = +n (s = 0) or -n (s = 1): B0 is a
    root mod p of 27 B^2 + 4 A^3 (the other is p - B0) where ok, and
    there is none where not ok (p | A, or -3A a non-residue)."""
    B0 = tab.t * tab.cusp[s][:, None] % pr.p[:, None]
    return B0, (tab.f == tab.fcusp[s][:, None]) & (B0 != 0)


def _lift_cusp(tab: _Table, pr: _Primes, plan: _Plan, s: int, i, c, r) -> np.ndarray:
    """The roots mod p^2 over the cusp roots r of the table entries (i, c),
    A = +-n[c]; x^-1 = (-27/4) A^-3 with A^-1 = +-n^-1 from the table."""
    p = pr.p[i]
    inv = tab.inv[i, c]
    xinv = inv * inv % p * inv % p * pr.m27_4[i] % p
    if s:
        xinv = (p - xinv) % p
    A = plan.n[c] * (1 - 2 * s)
    return _lift_root(r, xinv, A * A * A, p, pr.inv54[i])


# ---------------------------------------------------------------------------
# stage 1: roots, one block of primes at a time

# table entries (primes x columns) per prime block, and candidates per
# chunk of the cofactor scan: bounds their temporaries to about a MiB
_TABLE = 1 << 15

_FLIP = 12  # root tables take p < P = L // _FLIP, the cofactor scan p >= P


def _odd_span(Bmax: int) -> tuple[int, int]:
    """(lo, W): the odd B in [-Bmax, Bmax] are lo, lo + 2, ..., lo + 2 (W - 1),
    the columns of stage 2."""
    h = (Bmax + 1) // 2
    return 1 - 2 * h, 2 * h


def _first_cell(r, lo: int, m):
    """The first cell of the progression B = r (mod m), m odd, in a row of
    the odd B from lo: the s in [0, m) with lo + 2 s = r (mod m)."""
    d = (r - lo) % m
    return (d + (d & 1) * m) // 2


class _Found(NamedTuple):
    """Stage 1's output for some prime blocks: hits (stripe * W + column)
    and progressions of B (stripe, `_first_cell`, modulus p or p^2 < L)."""

    hits: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    mods: np.ndarray


_NONE = np.zeros(0, dtype=np.int64)
_EMPTY = _Found(_NONE, _NONE, _NONE, _NONE)

# root blocks whose output is merged into one _Found: a few large arrays
# fragment the malloc heap far less than four small ones per block (X = 8,
# one process, glibc: stage 1 peaked at 66 MiB RSS merged, 103-109 unmerged)
_BATCH = 64


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, concatenated."""
    return np.arange(int(counts.sum())) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _merge(parts) -> _Found:
    """The hits and progressions of all the parts, as one _Found."""
    return _Found(*(np.concatenate(col) for col in zip(_EMPTY, *parts)))


class _RootStage:
    """Stage 1 for the stripes As (3 | A stripes need no roots): their plan
    and box, shared by all the prime blocks one process solves.  Root
    tables take the primes 5 <= p < P = L // _FLIP, the cofactor the rest."""

    def __init__(self, As: np.ndarray, Bmax: int):
        self.live = np.flatnonzero(As % 3 != 0)
        self.As = As[self.live]
        self.plan = _Plan.of(self.As, self.live)
        self.Bmax, self.L = Bmax, 2 * Bmax + 1
        self.P = self.L // _FLIP
        self.lo, self.W = _odd_span(Bmax)

    def blocks(self) -> list[np.ndarray]:
        """The primes 5 <= p < P in blocks, ordered by s then p (s = 1 needs
        no Tonelli-Shanks steps, and the exponents of a block have similar
        length)."""
        p = np.asarray(primes_up_to(self.P - 1)[2:], dtype=np.int64)
        p = p[np.lexsort((p, (p - 1) & (1 - p)))]
        size = max(1, _TABLE // self.plan.n.size)
        return [p[lo : lo + size] for lo in range(0, p.size, size)]

    def run(self, primes: np.ndarray) -> _Found:
        """Per stripe and prime: the progression B = 0 (mod p) where p | A;
        else both roots R, p^2 - R mod p^2, as progressions where p^2 < L
        and otherwise as at most one hit per root, at odd B."""
        pr = _Primes.of(primes)
        tab = _root_table(pr, self.plan)
        parts = []
        for s in (0, 1):
            B0, ok = _cusp_roots(tab, pr, s)
            stripe = self.plan.rows[s]
            live = stripe >= 0
            k = np.flatnonzero((B0 == 0) & live)  # p | A: p^2 | Delta iff p | B
            i, c = np.divmod(k, B0.shape[1])
            p = pr.p[i]
            parts.append(_Found(_NONE, stripe[c], _first_cell(0, self.lo, p), p))
            ok &= live
            k = np.flatnonzero(ok)
            i, c = np.divmod(k, B0.shape[1])
            R = _lift_cusp(tab, pr, self.plan, s, i, c, B0.ravel()[k])
            p2 = np.tile(pr.p[i] ** 2, 2)
            roots = np.concatenate([R, p2[: R.size] - R])
            rows = np.tile(stripe[c], 2)
            few = p2 < self.L
            B = (roots + self.Bmax) % p2 - self.Bmax
            one = ~few & (B <= self.Bmax) & (B % 2 == 1)
            hits = rows[one] * self.W + (B[one] - self.lo) // 2
            m = p2[few]
            parts.append(_Found(hits, rows[few], _first_cell(roots[few], self.lo, m), m))
        return _merge(parts)

    def cofactor(self, deadline: Deadline) -> _Found:
        """The hits of the primes p >= P at odd B, by the cofactor k = Delta / p^2
        (3 mod 4, prime to 3): one sorted array of keys by class k p^2 mod 216,
        one window per stripe in its class 4 A^3 + 27, chunks of about _TABLE."""
        a3 = 4 * self.As**3
        top = 4 * int(np.abs(self.As).max(initial=0)) ** 3 + 27 * self.Bmax**2
        ps = np.asarray(primes_up_to(math.isqrt(top))[2:], dtype=np.int64)
        p2 = ps[ps >= self.P] ** 2
        cls = (a3 + 27) % 216
        span = 2 * top + 2
        kmax = top // int(p2[0]) if p2.size else 0
        a = np.arange(1, kmax + 1)
        a = a[(a % 2 == 1) & (a % 3 != 0)]
        k = np.where(a % 4 == 3, a, -a)  # k = 3 (mod 4), by |k| = a
        n = np.searchsorted(a, top // p2, side="right")  # |k| p^2 <= top
        kp2 = k[_ranges(np.zeros_like(n), n)] * np.repeat(p2, n)
        kp2 = kp2[np.isin(kp2 % 216, cls, kind="table")]  # 12 of 216 classes
        keys = np.sort(kp2 % 216 * span + kp2 + top)
        base = cls * span + top + a3  # the key of k p^2 = Delta(A, 0)
        lo, hi = np.searchsorted(keys, np.stack([base + 27, base + 27 * self.Bmax**2 + 1]))
        n = hi - lo
        cuts = np.searchsorted(np.cumsum(n), np.arange(_TABLE, int(n.sum()), _TABLE))
        hits = [_NONE]
        for rows in np.split(np.arange(a3.size), cuts):
            deadline.check()
            row = np.repeat(rows, n[rows])
            v = keys[_ranges(lo[rows], n[rows])] - base[row]
            b = np.rint(np.sqrt(v / 27)).astype(np.int64)
            sq = 27 * b * b == v
            flat, B = self.live[row[sq]] * self.W, b[sq]  # B is odd, as Delta is
            hits += [flat + (B - self.lo) // 2, flat - (B + self.lo) // 2]
        return _Found(np.concatenate(hits), _NONE, _NONE, _NONE)


def _run_blocks(stage: _RootStage, blocks: list[np.ndarray], deadline: Deadline) -> list[_Found]:
    """stage.run on each block, merged _BATCH blocks at a time."""
    found, batch = [], []
    for primes in blocks:
        deadline.check()
        batch.append(stage.run(primes))
        if len(batch) == _BATCH:
            found.append(_merge(batch))
            batch = []
    return found + [_merge(batch)]


def _find_roots(As: np.ndarray, Bmax: int, deadline: Deadline) -> _Found:
    """Stage 1 for the stripes As: the cofactor scan and the root blocks, merged."""
    stage = _RootStage(As, Bmax)
    blocks = stage.blocks()  # before the scan: a lower peak RSS over repeated counts
    return _merge([stage.cofactor(deadline)] + _run_blocks(stage, blocks, deadline))


# ---------------------------------------------------------------------------
# stage 2: rows


def _mark_row(buf: np.ndarray, starts, mods, cols):
    """Mark one stripe in buf (its W odd B): True where some prime p >= 5
    has p^2 | Delta(A, B).  starts, mods: its progressions, as a first
    cell and a stride; cols: its hit cells."""
    buf[:] = False
    for start, m in zip(starts, mods):
        buf[start::m] = True
    buf[cols] = True


def _marked_rows(As: np.ndarray, Bmax: int, found: _Found, deadline: Deadline):
    """Stage 2: yields (i, buf) for each stripe As[i] with 3 not dividing A,
    buf marked by `_mark_row`.  The one buffer is reused: read it before the
    next step."""
    W = _odd_span(Bmax)[1]
    hits, rows, starts, mods = found
    hits = np.sort(hits)
    hb = np.searchsorted(hits, np.arange(As.size + 1) * W).tolist()
    order = np.argsort(rows, kind="stable")
    starts, mods = starts[order], mods[order]
    sb = np.searchsorted(rows[order], np.arange(As.size + 1)).tolist()
    buf = np.empty(W, dtype=bool)
    for k, i in enumerate(np.flatnonzero(As % 3 != 0).tolist()):
        if k % 256 == 0:
            deadline.check()
        a, b = sb[i], sb[i + 1]
        _mark_row(buf, starts[a:b].tolist(), mods[a:b].tolist(), hits[hb[i] : hb[i + 1]] - i * W)
        yield i, buf


def _check_int64_headroom(Amax: int, pmax: int):
    """Every int64 intermediate of the kernel is below 27 pmax^2 + 4 Amax^3
    or 432 (pmax + 1)^2:

      * residues mod p are below p < P <= pmax, so products of two of them,
        n rho(n) (n <= Amax <= pmax) and the lifted roots r + p k are
        below pmax^2;
      * the Hensel step's 27 r^2 + 4 A^3 (r < p) is below
        27 pmax^2 + 4 Amax^3 in absolute value;
      * with pmax = isqrt(Delta_max), the cofactor scan keeps
        |k| p^2 <= top = Delta_max < (pmax + 1)^2, its keys (class < 216)
        below 216 (2 top + 2) <= 432 (pmax + 1)^2, and hit indices
        stripe * W + column (W <= Bmax + 1 odd columns) are below
        (2 Amax + 1)(Bmax + 1) <= Delta_max;
      * a progression's first cell comes from (r - lo) mod m + m < 2 L."""
    if max(27 * pmax**2 + 4 * Amax**3, 432 * (pmax + 1) ** 2) >= 2**63:
        raise ValueError(f"int64 headroom: a kernel value would reach 2^63 (pmax = {pmax})")


def _box_bounds(cfg: CountConfig) -> tuple[int, int]:
    if cfg.mode == "exact":
        return int(math.floor(cfg.X**4)), int(math.floor(cfg.X**6))
    z = decay_radius(SMOOTHED_CUTOFF)
    return int(math.ceil(z * cfg.X**4)), int(math.ceil(z * cfg.X**6))


def _stripe_rows(As: np.ndarray, Bmax: int, cfg: CountConfig, deadline: Deadline) -> list[tuple]:
    """Both stages for the stripes As: one row (A, count, sum B, sum B^2 mod
    2^61 - 1), with the weighted sum last in smoothed mode, per A, in order."""
    found = _find_roots(As, Bmax, deadline)
    lo, W = _odd_span(Bmax)
    h = W // 2  # cell i holds B = lo + 2 i and mirrors cell W - 1 - i, -B
    B2 = np.arange(1, Bmax + 1, 2, dtype=np.int64) ** 2  # the half: sum B^2 <= h Bmax^2 < 2^63
    smoothed = cfg.mode == "smoothed"
    dead = (0, 0, 0, 0.0) if smoothed else (0, 0, 0)  # 3 | A: 9 | Delta
    stripes = [(A,) + dead for A in As.tolist()]
    if smoothed:
        gB = gauss(np.arange(lo, Bmax + 1, 2) / cfg.X**6)
    for i, marked in _marked_rows(As, Bmax, found, deadline):
        A = stripes[i][0]
        # B -> -B fixes Delta, so every row is its own mirror and its survivors
        # sum to 0; the half B > 0 gives the count and sum B^2
        if marked[:h].tobytes() != marked[h:][::-1].tobytes():
            B = 1 + 2 * int(np.flatnonzero(marked[h:] != marked[:h][::-1])[0])
            raise RuntimeError(f"stripe A = {A}: marks differ at B = {B} and {-B}")
        keep = ~marked[h:]
        row = (A, 2 * int(np.count_nonzero(keep)), 0, 2 * int(B2 @ keep) % (2**61 - 1))
        if smoothed:
            row += (float(gauss(A / cfg.X**4) * np.sum(gB[~marked])),)
        stripes[i] = row
    return stripes


def _run_count(cfg: CountConfig, deadline: Deadline | None = None) -> CountResult:
    """The stripe rows of the box in A order: in this process, or with
    several workers, worker k on the A with |A| = k (mod workers), both
    signs, so that each column of its root tables serves both.  Every
    worker checks the one deadline."""
    deadline = deadline or Deadline()
    Amax, Bmax = _box_bounds(cfg)
    _check_int64_headroom(Amax, math.isqrt(4 * Amax**3 + 27 * Bmax**2))
    As = np.arange(-Amax, Amax + 1, dtype=np.int64)
    workers = min(cfg.threads, os.cpu_count() or 1, Amax + 1)
    if workers <= 1:
        stripes = _stripe_rows(As, Bmax, cfg, deadline)
    else:
        shards = [As[np.abs(As) % workers == k] for k in range(workers)]
        with ProcessPoolExecutor(workers) as pool:
            done = pool.map(_stripe_rows, shards, repeat(Bmax), repeat(cfg), repeat(deadline))
            stripes = sorted(row for rows in done for row in rows)  # by A, as A is unique
    smoothed = cfg.mode == "smoothed"
    digest = hashlib.sha256(repr([row[:4] for row in stripes]).encode()).hexdigest()
    return CountResult(
        cfg.X,
        cfg.mode,
        None if smoothed else sum(row[1] for row in stripes),
        float(np.sum(np.array([row[4] for row in stripes]))) if smoothed else None,
        len(stripes),
        digest,
        tuple(stripes),
    )


def exact_count(cfg: CountConfig, deadline: Deadline | None = None) -> CountResult:
    """Exact number of box pairs with Delta nonzero and square-free."""
    if cfg.mode != "exact":
        raise ValueError("exact_count needs mode='exact'")
    return _run_count(cfg, deadline)


def smoothed_count(cfg: CountConfig, deadline: Deadline | None = None) -> CountResult:
    """Gaussian-weighted sum of mu^2(Delta) over the truncated box."""
    if cfg.mode != "smoothed":
        raise ValueError("smoothed_count needs mode='smoothed'")
    return _run_count(cfg, deadline)


# ---------------------------------------------------------------------------
# oracles (independent of the stripe sieve)


def naive_squarefree_count(X: float, chunk: int = 1 << 24) -> int:
    """Per-pair oracle: the nonzero |Delta| of the box, tested in value space.

    The values go into one array of the smallest unsigned type that holds
    Delta_max (uint32 at X = 4).  Two tests then remove the values with a
    square factor p^2, p <= sqrt(Delta_max):

      * value side: for each small p, with p^2 <= Delta_max / #values, one
        pass of v % p^2 over the surviving values (p <= 11 at X = 4);
      * bitmap: the survivors are sorted once, and each chunk of the value
        range [0, Delta_max] gets a square-free bitmap of the larger p^2,
        looked up for the values in that chunk (found by searchsorted);
        chunks that hold no value are skipped.

    Shares nothing with the stripe sieve except the prime list.  Capped at
    X <= 4 (4.2 M values); the cap is checked before anything is allocated.
    """
    if X > 4:
        raise ValueError("value-space oracle capped at X <= 4")
    Amax, Bmax = int(math.floor(X**4)), int(math.floor(X**6))
    dmax = 4 * Amax**3 + 27 * Bmax**2
    vals = np.empty((2 * Amax + 1) * (2 * Bmax + 1), dtype=np.min_scalar_type(dmax))
    n = 0
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)
    d27 = 27 * B * B
    for A in range(-Amax, Amax + 1):
        d = 4 * A**3 + d27
        d = d[d != 0]
        vals[n : n + d.size] = np.abs(d)
        n += d.size
    vals = vals[:n]
    # a value-side pass costs #values, a bitmap pass Delta_max / p^2
    small = dmax // max(n, 1)
    big = []
    for p in primes_up_to(math.isqrt(dmax)):
        p2 = p * p
        if p2 <= small:
            vals = vals[vals % p2 != 0]
        else:
            big.append(p2)
    vals.sort()
    total = 0
    for lo in range(0, dmax + 1, chunk):
        hi = min(lo + chunk, dmax + 1)
        i = int(vals.searchsorted(lo))
        j = int(vals.searchsorted(hi - 1, side="right"))
        if i == j:
            continue
        sf = np.ones(hi - lo, dtype=bool)
        for p2 in big:
            if p2 >= hi:
                break
            sf[(-lo) % p2 :: p2] = False
        total += int(np.count_nonzero(sf[vals[i:j] - lo]))
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
    """Direct Gaussian-weighted oracle over the truncated box (value-bitmap mu^2).

    The bitmap takes Delta_max bytes (218 MB at X = 3, 1.4 GB at X = 3.5), so
    X <= 3; the cap is checked before anything is allocated."""
    if X > 3:
        raise ValueError("weighted oracle capped at X <= 3")
    z = decay_radius(SMOOTHED_CUTOFF)
    Amax, Bmax = int(math.ceil(z * X**4)), int(math.ceil(z * X**6))
    dmax = 4 * Amax**3 + 27 * Bmax**2
    sf = np.ones(dmax + 1, dtype=bool)
    for p in primes_up_to(math.isqrt(dmax)):
        sf[p * p :: p * p] = False
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)
    wB = gauss(B / X**6)
    total = 0.0
    for A in range(-Amax, Amax + 1):
        d = 4 * A**3 + 27 * B * B
        keep = (d != 0) & sf[np.abs(d)]
        total += float(gauss(A / X**4) * np.sum(wB[keep]))
    return total


# ---------------------------------------------------------------------------
# S(X; k^2), the Mobius identity and the tail


def _delta_histogram(X: float) -> np.ndarray:
    """h[v] = number of box pairs with |Delta| = v, for v != 0 (h[0] = 0).

    The dtype is the smallest unsigned type that holds the largest count
    (uint8 at X = 3, 16.5 MB), not bincount's int64.  Capped at X <= 3,
    checked before anything is allocated."""
    if X > 3:
        raise ValueError("Delta histogram capped at X <= 3")
    Amax, Bmax = int(math.floor(X**4)), int(math.floor(X**6))
    A = np.arange(-Amax, Amax + 1, dtype=np.int64)[:, None]
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)[None, :]
    d = np.abs(4 * A**3 + 27 * B**2).ravel()
    vals, counts = np.unique(d[d != 0], return_counts=True)
    size = int(vals[-1]) + 1 if vals.size else 1
    h = np.zeros(size, dtype=np.min_scalar_type(int(counts.max(initial=0))))
    h[vals] = counts
    return h


def S_term(X: float, k: int, hist: np.ndarray | None = None) -> int:
    """Box pairs with k^2 | Delta and Delta != 0.

    Works in value space, the mechanism of `naive_squarefree_count`: one
    strided sum over the histogram of |Delta| (`_delta_histogram`).  Like
    that oracle it shares nothing with the stripe sieve, so
    `mobius_sieve_identity` stays an independent check of the sieve."""
    h = _delta_histogram(X) if hist is None else hist
    return int(h[k * k :: k * k].sum(dtype=np.int64))


def _mobius_S_sum(X: float, k_lo: int) -> int:
    """sum_{k_lo <= k <= kmax} mu(k) S(X; k^2), kmax = isqrt(max |Delta|),
    over one shared histogram."""
    h = _delta_histogram(X)
    kmax = math.isqrt(len(h) - 1)
    mu = mobius_table(kmax)
    return sum(int(mu[k]) * S_term(X, k, h) for k in range(k_lo, kmax + 1) if mu[k])


def mobius_sieve_identity(X: float) -> tuple[int, int, bool]:
    """exact_count(X) versus sum_k mu(k) S(X; k^2), exact integers."""
    if X > 3:
        raise ValueError("identity check capped at X <= 3")
    rhs = _mobius_S_sum(X, 1)
    lhs = exact_count(CountConfig(X=X)).count
    return lhs, rhs, lhs == rhs


def tail_S2(X: float, xi: float) -> tuple[int, float]:
    """(sum_{k > xi} mu(k) S(X; k^2), the reference shape X^16 / xi^2)."""
    if X > 3:
        raise ValueError("tail computation capped at X <= 3")
    tail = _mobius_S_sum(X, int(math.floor(xi)) + 1)
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


def compare_main_term(results: list[CountResult]) -> list[MainTermRow]:
    """One row per count, in order: its count (or weighted sum) against the
    main term 4 C X^10 (C X^10 smoothed), C = euler_product(1, MAIN_TERM_P)."""
    const = euler_product(1, MAIN_TERM_P)
    rows = []
    for res in results:
        X, exact = res.X, res.mode == "exact"
        lead = 4.0 if exact else 1.0
        val = float(res.count if exact else res.weighted)
        main_lo = lead * const.lo * X**10
        main_hi = lead * const.hi * X**10
        residual = val - lead * const.value * X**10
        rows.append(MainTermRow(X, res.mode, val, main_lo, main_hi, residual, residual / X**7))
    return rows
