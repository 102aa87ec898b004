"""Dirichlet characters, Gauss sums, and twisted Mobius sums over
arithmetic progressions with a coprimality side condition.

Characters are represented by exponent vectors over the cyclic
decomposition of the unit group (smallest primitive root for odd prime
powers, the {-1} x <5> structure for powers of 2).

chi(n) = e(sum_i k_i t_i / n_i) for a unit n with discrete logs t_i on
components of orders n_i.  With L = lcm(n_i) that angle is k / L for the
integer k = sum_i k_i t_i (L / n_i) mod L, so a whole table is one integer
matrix-vector product.  Since k, L < 2^53 are exact doubles, k / L is the
correctly rounded double of the exact angle, the same double that
float(Fraction) gives, and every table is bit-identical to summing exact
Fraction angles per value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .arith import euler_phi, factorize, mobius, mobius_range, mobius_table

MAX_CHARACTER_MODULUS = 10**4
MAX_MU_RANGE = 10**8


def _primitive_root(p: int, e: int) -> int:
    """Smallest primitive root mod p^e for odd p (valid for all e >= 1)."""
    qs = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            break
        g += 1
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True)
class _Component:
    prime_power: int
    orders: tuple[int, ...]
    # dlog maps a unit mod prime_power to its exponent tuple
    dlog: dict[int, tuple[int, ...]]


@lru_cache(maxsize=256)
def unit_group(q: int) -> tuple[_Component, ...]:
    """Cyclic decomposition of (Z/q)* with discrete-log tables."""
    if q < 1 or q > MAX_CHARACTER_MODULUS:
        raise ValueError(f"modulus {q} out of range [1, {MAX_CHARACTER_MODULUS}]")
    comps = []
    for p, e in factorize(q):
        pe = p**e
        if p == 2:
            if e == 1:
                comps.append(_Component(2, (), {1: ()}))
            elif e == 2:
                comps.append(_Component(4, (2,), {1: (0,), 3: (1,)}))
            else:
                dlog = {}
                for s in range(2):
                    v = pe - 1 if s else 1
                    for t in range(pe // 4):
                        dlog[v * pow(5, t, pe) % pe] = (s, t)
                comps.append(_Component(pe, (2, pe // 4), dlog))
        else:
            g = _primitive_root(p, e)
            phi = (p - 1) * p ** (e - 1)
            dlog, v = {}, 1
            for t in range(phi):
                dlog[v] = (t,)
                v = v * g % pe
            comps.append(_Component(pe, (phi,), dlog))
    return tuple(comps)


def _orders(q: int) -> list[int]:
    """The orders of the cyclic components of (Z/q)*, in `unit_group` order."""
    return [n for comp in unit_group(q) for n in comp.orders]


@lru_cache(maxsize=256)
def _angle_numerators(q: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(units, M, L): the units mod q, L = lcm of the component orders and
    the int64 matrix M[u, i] = dlog_i(units[u]) * L / order_i, so a
    character with exponents e takes the value e(((M @ e) mod L) / L) at
    the units and 0 elsewhere."""
    comps = unit_group(q)
    orders = _orders(q)
    L = math.lcm(*orders)
    units = [n for n in range(q) if math.gcd(n, q) == 1]
    logs = [[t for comp in comps for t in comp.dlog[n % comp.prime_power]] for n in units]
    M = np.array(logs, dtype=np.int64).reshape(len(units), len(orders))
    return np.array(units), M * (L // np.array(orders, dtype=np.int64)), L


def _numerators(q: int, exponents: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """(units, k, L) with chi(units[u]) = e(k[u] / L) and 0 <= k < L."""
    units, M, L = _angle_numerators(q)
    return units, (M @ np.array(exponents, dtype=np.int64)) % L, L


@dataclass(frozen=True)
class DirichletCharacter:
    """chi mod q given by exponents against the unit-group generators.

    At a unit chi is e(k / L), where L is the lcm of the component orders
    and the integer numerator k is the sum of exponent * dlog * L / order
    over the components, mod L (see `_numerators`).  k / L rounds once,
    from exact integers, so each value is the double of the exact angle.
    Non-units give 0.  `table()` holds all q values; calling chi reads it.
    """

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        orders = _orders(self.modulus)
        if len(self.exponents) != len(orders):
            raise ValueError("exponent vector has wrong length")
        object.__setattr__(
            self, "exponents", tuple(k % n for k, n in zip(self.exponents, orders))
        )

    def __call__(self, n: int) -> complex:
        return complex(self.table()[n % self.modulus])

    def table(self) -> np.ndarray:
        return _char_table(self.modulus, self.exponents)


@lru_cache(maxsize=64)
def _char_table(q: int, exponents: tuple[int, ...]) -> np.ndarray:
    units, k, L = _numerators(q, exponents)
    out = np.zeros(q, dtype=complex)
    out[units] = np.exp(2j * np.pi * (k / L))
    return out


def character_table(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q (the principal one first)."""
    return [DirichletCharacter(q, exps) for exps in product(*(range(n) for n in _orders(q)))]


# The caches below hold one modulus: callers visit the characters of a
# modulus one after another, and a table per modulus up to
# MAX_CHARACTER_MODULUS would not stay small.


@lru_cache(maxsize=1)
def _additive_phases(q: int) -> np.ndarray:
    """e(x / q) for x = 0 .. q - 1."""
    x = np.arange(q)
    out = np.exp(2j * np.pi * x / q)
    out.flags.writeable = False
    return out


def tau(chi: DirichletCharacter) -> complex:
    """Gauss sum sum_x chi(x) e(x / q)."""
    return complex(np.sum(chi.table() * _additive_phases(chi.modulus)))


@lru_cache(maxsize=1)
def _induced_unit_masks(q: int) -> tuple[np.ndarray, ...]:
    """For each prime p | q, the mask of the units x = 1 (mod q/p), over
    the units of `_angle_numerators`."""
    units = _angle_numerators(q)[0]
    return tuple((units - 1) % (q // p) == 0 for p, _ in factorize(q))


def is_primitive(chi: DirichletCharacter) -> bool:
    """True when chi is not induced by a character of smaller modulus."""
    q = chi.modulus
    if q % 4 == 2:
        return False
    # chi(x) = 1 exactly when its angle numerator is 0 mod L, so the units
    # x = 1 (mod q/p) are tested on integers, without building the table
    _, k, _ = _numerators(q, chi.exponents)
    return all(k[mask].any() for mask in _induced_unit_masks(q))


# ---------------------------------------------------------------------------
# Mobius sums over progressions

_MU_TABLE_CAP = 1 << 22  # width of a sieved mu segment


@lru_cache(maxsize=8)
def _mu_cached(n: int) -> np.ndarray:
    return mobius_table(n)


def _mu_upto(n: int) -> np.ndarray:
    # round the cache size up so nearby requests share a table
    size = max(1024, 1 << int(n - 1).bit_length())
    return _mu_cached(size)


def _class_sums(lo: int, hi: int, q1s, ws, coprime_to: int) -> dict[tuple[int, float], np.ndarray]:
    """sums[q1, w][k] = sum of mu(n) e(w n) over lo <= n <= hi with
    n = k (mod q1) and (n, coprime_to) = 1, for every q1 in q1s and w in ws.
    mu is sieved once, in segments _MU_TABLE_CAP wide (so the 1e8 range cap
    stays within memory); each segment's phases e(w n) serve every q1, and
    every sum is accumulated in order of n.  A repeated q1 or w (or w's
    that compare equal, like 0.0 and -0.0) shares one entry, summed once."""
    q1s, ws = dict.fromkeys(q1s), dict.fromkeys(ws)
    sums = {(q1, w): np.zeros(q1, dtype=complex) for q1 in q1s for w in ws}
    for start in range(lo, hi + 1, _MU_TABLE_CAP):
        mu = mobius_range(start, min(start + _MU_TABLE_CAP, hi + 1))
        n = np.arange(start, start + mu.size, dtype=np.int64)
        mu = mu.astype(np.float64) * (np.gcd(n, coprime_to) == 1)
        for w in ws:
            vals = mu * np.exp(2j * np.pi * ((w * n) % 1.0))
            for q1 in q1s:
                np.add.at(sums[q1, w], n % q1, vals)
    return sums


def ap_mobius_sum(L: float, s: float, w: float, q1: int, j: int, coprime_to: int) -> complex:
    """S_j(s, w): sum of mu(n) e(w n) over L < n <= s with n = j (mod q1)
    and (n, coprime_to) = 1, evaluated directly as one class of
    `_class_sums`."""
    if not 0 <= L < s:
        raise ValueError("need 0 <= L < s")
    if q1 < 1 or math.gcd(j, q1) != 1:
        raise ValueError("(j, q1) must be 1")
    if s > MAX_MU_RANGE:
        raise ValueError(f"range cap is {MAX_MU_RANGE}")
    lo = int(math.floor(L)) + 1
    hi = int(math.floor(s))
    if hi < lo:
        return 0j
    return complex(_class_sums(lo, hi, (q1,), (w,), coprime_to)[q1, w][j % q1])


def dirichlet_approximation(w: float, R: int) -> tuple[int, int, float]:
    """(a, r, beta) with (a, r) = 1, r <= R and |w - a/r| <= 1/(r R).

    Continued-fraction convergents; the last one with denominator <= R.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(w)), 1
    x = w - math.floor(w)
    for _ in range(64):
        if q_cur > R:
            p_cur, q_cur = p_prev, q_prev
            break
        if x < 1e-15:
            break
        x = 1.0 / x
        a_i = int(math.floor(x))
        x -= a_i
        p_prev, p_cur = p_cur, a_i * p_cur + p_prev
        q_prev, q_cur = q_cur, a_i * q_cur + q_prev
    if q_cur > R:
        p_cur, q_cur = p_prev, q_prev
    return p_cur, q_cur, w - p_cur / q_cur


# ---------------------------------------------------------------------------
# the section-13 decomposition


def _bucket_matrix(hi, q1, r_mod, coprime_to):
    """W[u, v] = sum of mu(n) over n in [1, hi] with n = u (q1), n = v (r_mod),
    (n, coprime_to) = 1."""
    n = np.arange(1, hi + 1, dtype=np.int64)
    mu = _mu_upto(max(hi, 1))[1 : hi + 1].astype(np.float64)
    mu = mu * (np.gcd(n, coprime_to) == 1)
    # the sums of mu in {-1, 0, 1} are exact in any order
    W = np.bincount(n % q1 * r_mod + n % r_mod, weights=mu, minlength=q1 * r_mod)
    return W.reshape(q1, r_mod)


def decomposition_sweep(q1: int, r: int, s: int, coprime_to: int) -> dict[tuple[int, int], float]:
    """Check the character decomposition of S_j(s, a/r) at every unit class
    j mod q1 and a mod r (1 <= j <= q1, 1 <= a <= r): the deviation
    |direct - reconstructed|, keyed by (j, a).

    direct:  sum over n <= s, n = j (q1), (n, C) = 1 of mu(n) e(a n / r).
    reconstructed: expansion over chi mod q1, divisors f | r and chi1 mod r/f,

        (1/phi(q1)) sum_chi conj(chi)(j) sum_{f|r} mu(f) chi(f) (1/phi(r1))
        sum_{chi1} conj(chi1)(a) tau(chi1)
        sum_{n1 <= s/f} mu(n1) chi(n1) chi0(n1) conj(chi1)(n1)

    with chi0 principal mod C f.  (The n1-factor is conj(chi1), which is
    what the e(a n1 / r1) expansion produces.)  The inner sums are shared
    by all classes.
    """
    if q1 > 20 or r > 12 or s > 10**4:
        raise ValueError("caps: q1 <= 20, r <= 12, s <= 10^4")
    js = tuple(j for j in range(1, q1 + 1) if math.gcd(j, q1) == 1)
    As = tuple(a for a in range(1, r + 1) if math.gcd(a, r) == 1)
    chis = character_table(q1)
    chi_tabs = np.array([c.table() for c in chis])  # [i, n] = chi_i(n)
    phi_q1 = euler_phi(q1)

    # direct sums, bucketed by (n mod q1, n mod r)
    Wd = _bucket_matrix(s, q1, r, coprime_to)

    # reconstructed inner sums, per divisor f of r
    per_f = []
    for f in range(1, r + 1):
        if r % f:
            continue
        r1 = r // f
        chi1s = character_table(r1)
        chi1_tabs = np.array([c.table() for c in chi1s])
        taus = [tau(c) for c in chi1s]
        Wf = _bucket_matrix(s // f, q1, r1, coprime_to * f)
        # S[i, i1] = sum_n1 mu(n1) chi_i(n1) conj(chi1_i1)(n1) [(n1, C f) = 1]
        S = np.empty((len(chis), len(chi1s)), dtype=complex)
        for i, ct in enumerate(chi_tabs):
            tmp = ct @ Wf  # length r1
            for i1, c1t in enumerate(chi1_tabs):
                S[i, i1] = tmp @ np.conj(c1t)
        per_f.append((f, r1, chi1_tabs, taus, S))

    out = {}
    for a in As:
        direct_by_class = Wd @ np.exp((2j * np.pi / r) * (a * np.arange(r) % r))
        # inner combination independent of j
        inner = np.zeros(len(chis), dtype=complex)
        for f, r1, chi1_tabs, taus, S in per_f:
            muf = mobius(f)
            # n = f n1 cannot be coprime to C unless (f, C) = 1
            if muf == 0 or math.gcd(f, coprime_to) != 1:
                continue
            phi_r1 = euler_phi(r1)
            coef = np.zeros(len(chis), dtype=complex)
            for i1, c1a in enumerate(chi1_tabs[:, a % r1]):
                coef += np.conj(c1a) * taus[i1] * S[:, i1]
            inner += muf * chi_tabs[:, f % q1] * coef / phi_r1
        for j in js:
            direct = complex(direct_by_class[j % q1])
            chij = np.conj(chi_tabs[:, j % q1])
            recon = complex(np.sum(chij * inner) / phi_q1)
            out[(j, a)] = abs(direct - recon)
    return out


# ---------------------------------------------------------------------------
# cancellation scan


@dataclass(frozen=True)
class SjRow:
    q1: int
    s: int
    w: float
    sum_abs: float
    ratio: float


def sj_cancellation_scan(
    q1_values: tuple[int, ...],
    s_values: tuple[int, ...],
    w_values: tuple[float, ...],
) -> list[SjRow]:
    """sum_j |S_j(s, w)| against q1^(1/2) s^(5/6), with (n, 6) = 1;
    observational only.  mu is sieved once per s (`_class_sums`), for
    every q1 and w at once."""
    if any(q1 > 50 for q1 in q1_values):
        raise ValueError("q1 cap is 50")
    if any(s > 10**7 for s in s_values):
        raise ValueError("s cap is 10^7 in the scan")
    sums = {s: _class_sums(1, s, q1_values, w_values, 6) for s in s_values}
    rows = []
    for q1 in q1_values:
        for s in s_values:
            for w in w_values:
                tot = float(
                    sum(
                        abs(sums[s][q1, w][j % q1])
                        for j in range(1, q1 + 1)
                        if math.gcd(j, q1) == 1
                    )
                )
                rows.append(SjRow(q1, s, w, tot, tot / (math.sqrt(q1) * s ** (5 / 6))))
    return rows
