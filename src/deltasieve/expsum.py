"""Complete exponential sums to square moduli.

Central objects:

    E(c, d; q)    = sum over units z mod q of e((c z^3 - d z^2) / q)
    F(c3,c2,c1;r) = unrestricted cubic sum mod r
    calE(m, n; l^2) = two-variable sum over unit pairs (c, d) mod l^2 with
                      a^3 c^2 + b^2 h d^3 = 0 (mod l^2)

plus the explicit evaluation chain for E(a^3 b^4 h^2 m, a^3 b^2 h n; l^2)
(gcd split, twisted multiplicative factorization, quadratic Gauss sum with
coprimality constraint, Hensel-lifted closed form and the Kloosterman
flip), the CRT factorizations of the second Poisson step, and a two-sided
numerical Poisson-summation check.

Phases are reduced exactly in integers mod q before hitting the unit
circle, so floating error is summation-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import euler_phi, factorize, is_squarefree, legendre_eps, sqrt_mod
from .weights import decay_radius, gauss

MAX_BRUTE_MODULUS = 10**7

# the first Poisson check sums the weights out to where they fall below
# POISSON_CUTOFF; the second stops its u-sum by |u| <= POISSON_U_CAP
POISSON_CUTOFF = 1e-14
POISSON_U_CAP = 2000


def _unit_circle(num: np.ndarray, den: int) -> np.ndarray:
    """e(num / den) for an integer array num (any sign)."""
    return np.exp((2j * np.pi / den) * (np.asarray(num, dtype=np.int64) % den))


def e_frac(theta: Fraction) -> complex:
    """e(theta) = exp(2 pi i theta), with theta reduced mod 1 exactly."""
    return complex(np.exp(2j * np.pi * float(theta % 1)))


@dataclass(frozen=True)
class PhasePolynomial:
    """Integer polynomial phase with no constant term, mod q.

    ``coeffs`` is (c1, c2, ..., cn), lowest degree first, stored reduced
    into [0, q).  Its complete sum runs over every x mod q; `E_sum` sums
    over the units only.
    """

    coeffs: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(
            self, "coeffs", tuple(c % self.modulus for c in self.coeffs)
        )

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i + 1
        return 0


def _sum_error(n: int) -> float:
    # per-term unit-circle rounding plus pairwise accumulation
    return 2.5e-15 * n + 1e-16


def _brute_sum(p: PhasePolynomial, x: np.ndarray) -> complex:
    """sum over the given x of e(f(x) / q), in the order of x.

    The phase is reduced mod q exactly in int64 (q <= 1e7 keeps the Horner
    products inside the word), then mapped to the unit circle.
    """
    q = p.modulus
    acc = np.zeros(x.size, dtype=np.int64)
    for c in reversed(p.coeffs):
        acc = (acc * x + c) % q
    acc = acc * x % q  # no constant term: f(x) = (c_n x^(n-1) + ... + c_1) x
    return complex(_unit_circle(acc, q).sum())


def _brute_range(q: int) -> np.ndarray:
    """0, 1, ..., q - 1, for a modulus within the brute-force cap."""
    if q > MAX_BRUTE_MODULUS:
        raise ValueError(f"modulus {q} exceeds brute-force cap {MAX_BRUTE_MODULUS}")
    return np.arange(q, dtype=np.int64)


def raw_phase_sum(p: PhasePolynomial) -> complex:
    """Brute-force evaluation of the complete sum for ``p``."""
    return _brute_sum(p, _brute_range(p.modulus))


def E_sum(c: int, d: int, q: int) -> complex:
    """E(c, d; q) by brute force: the phase c z^3 - d z^2 on units."""
    x = _brute_range(q)
    return _brute_sum(PhasePolynomial((0, -d, c), q), x[np.gcd(x, q) == 1])


def F_sum(c3: int, c2: int, c1: int, r: int) -> complex:
    """F(c3, c2, c1; r) by brute force: the unrestricted cubic sum."""
    return raw_phase_sum(PhasePolynomial((c1, c2, c3), r))


# ---------------------------------------------------------------------------
# congruence frames


@dataclass(frozen=True)
class CongruenceFrame:
    """Parameter tuple (k2, k3, h, l) with a = 3/k3, b = 2/k2.

    Invariants: k2 | 2, k3 | 3, (h, 6) = 1, l square-free, (l, 6h) = 1.
    """

    k2: int
    k3: int
    h: int
    l: int

    def __post_init__(self):
        if self.k2 not in (1, 2) or self.k3 not in (1, 3):
            raise ValueError("k2 must divide 2 and k3 must divide 3")
        if self.h < 1 or math.gcd(self.h, 6) != 1:
            raise ValueError(f"h = {self.h} must be positive and coprime to 6")
        if self.l < 1 or not is_squarefree(self.l):
            raise ValueError(f"l = {self.l} must be positive square-free")
        if math.gcd(self.l, 6 * self.h) != 1:
            raise ValueError(f"l = {self.l} must be coprime to 6h = {6 * self.h}")

    @property
    def a(self) -> int:
        return 3 // self.k3

    @property
    def b(self) -> int:
        return 2 // self.k2

    def split(self, m: int) -> tuple[int, int, int]:
        """d = (m, l), m1 = m/d, l1 = l/d (d = l when m = 0)."""
        d = math.gcd(abs(m), self.l) if m != 0 else self.l
        return d, m // d, self.l // d


@lru_cache(maxsize=128)
def cal_E_solutions(frame: CongruenceFrame) -> tuple[np.ndarray, np.ndarray]:
    """Unit pairs (c, d) mod l^2 with a^3 c^2 + b^2 h d^3 = 0 (mod l^2)."""
    l = frame.l
    l2 = l * l
    if l2 > 10**4:
        raise ValueError(f"l^2 = {l2} exceeds brute-force cap 10^4")
    z = np.arange(l2, dtype=np.int64)
    unit = np.gcd(z % l, l) == 1
    quad = (frame.a**3 % l2) * (z * z % l2) % l2
    cub = (frame.b**2 * frame.h % l2) * (z * z % l2 * z % l2) % l2
    by_quad: dict[int, list[int]] = {}
    for cval, qv in zip(z[unit], quad[unit]):
        by_quad.setdefault(int(qv), []).append(int(cval))
    cs, ds = [], []
    for dval, cv in zip(z[unit], cub[unit]):
        for cval in by_quad.get(int((-cv) % l2), ()):
            cs.append(cval)
            ds.append(int(dval))
    return np.asarray(cs, dtype=np.int64), np.asarray(ds, dtype=np.int64)


def cal_E(frame: CongruenceFrame, m: int, n: int) -> complex:
    """calE(m, n; l^2), the two-variable sum, by brute force."""
    l2 = frame.l ** 2
    cs, ds = cal_E_solutions(frame)
    ph = (cs * m + ds * n) % l2
    return complex(_unit_circle(ph, l2).sum()) if cs.size else 0j


def E_arguments(frame: CongruenceFrame, m: int, n: int) -> tuple[int, int]:
    """The single-variable arguments: calE(m,n;l^2) = E(a^3 b^4 h^2 m, a^3 b^2 h n; l^2)."""
    a, b, h = frame.a, frame.b, frame.h
    return a**3 * b**4 * h**2 * m, a**3 * b**2 * h * n


def evaluate_E_explicit(frame: CongruenceFrame, m: int, n: int) -> complex:
    """E(a^3 b^4 h^2 m, a^3 b^2 h n; l^2) by the explicit route.

    Steps: d = (m, l); zero unless d | n; for m = 0 a quadratic Gauss sum
    with coprimality constraint, d * phi(e) * f(a^3 b^2 h n2; d2); otherwise
    the residual modulus-d sum (brute force) times l1 and the two flipped
    Kloosterman exponentials.  Note the overall factor d in the m != 0
    branch: the twisted factorization contributes d * E(...; d), and the
    result is checked against brute force on l^2.
    """
    a, b, h, l = frame.a, frame.b, frame.h, frame.l
    k2, k3 = frame.k2, frame.k3
    d, m1, l1 = frame.split(m)
    if n % d != 0:
        return 0j
    n1 = n // d
    if m1 != 0 and math.gcd(abs(n1), l1) != 1:
        # the congruence x = 2*3bar*bbar^2*hbar*n1*m1bar (mod l1) has no
        # unit solution when (n1, l1) > 1, so the l1^2-factor vanishes
        return 0j
    if m1 == 0:
        # m = 0, d = l, l1 = 1
        e = math.gcd(abs(n1), d) if n1 != 0 else d
        return d * euler_phi(e) * gauss_f(a**3 * b**2 * h * (n1 // e), d // e)
    if d > 1:
        c, e = _residual_coeffs(a, b, h, m1, l1, d)
        ed = E_sum(c, e * n1, d)
    else:
        ed = 1 + 0j
    big = k3**3 * h * d * m1 * m1
    theta = Fraction(-(k2**2) * n1**3, big * l1 * l1)
    linv2 = pow(l1 * l1, -1, big)
    theta += Fraction(linv2 * (k2**2 * n1**3 % big), big)
    return d * l1 * ed * e_frac(theta)


def gauss_f(c: int, q: int) -> complex:
    """f(c; q) = prod over p | q of (eps_p * (-c(q/p) / p) * sqrt(p) - 1).

    Exact product formula for E(0, c; q) when q is odd square-free and
    (c, q) = 1.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"q = {q} must be odd and positive")
    fac = factorize(q)
    if any(e > 1 for _, e in fac):
        raise ValueError(f"q = {q} must be square-free")
    out = 1 + 0j
    for p, _ in fac:
        sym, eps = legendre_eps(-c * (q // p), p)
        out *= eps * sym * math.sqrt(p) - 1
    return out


def multiplicativity_check(c: int, d: int, q1: int, q2: int) -> float:
    """|E(c,d;q1 q2) - E(c q2bar, d q2bar; q1) E(c q1bar, d q1bar; q2)|.

    q2bar is the inverse of q2 mod q1 and vice versa (the twisted
    factorization behind the gcd split).
    """
    if math.gcd(q1, q2) != 1:
        raise ValueError("moduli must be coprime")
    whole = E_sum(c, d, q1 * q2)
    i2 = pow(q2, -1, q1)
    i1 = pow(q1, -1, q2)
    left = E_sum(c * i2, d * i2, q1)
    right = E_sum(c * i1, d * i1, q2)
    return abs(whole - left * right)


def kloosterman_flip_check(n: int, m: int, k: int) -> bool:
    """Exact rational check of the flip
    e(-n^3 m2bar / k^2) = e(n^3 k2bar / m^2) * e(-n^3 / (m^2 k^2)).

    m2bar is the inverse of m^2 mod k^2, k2bar the inverse of k^2 mod m^2;
    both the base identity m2bar/k^2 + k2bar/m^2 = 1/(m^2 k^2) (mod 1) and
    the n^3-scaled version are checked in exact rational arithmetic.
    """
    if m < 1 or k < 1:
        raise ValueError("m, k must be positive")
    if math.gcd(m, k) != 1:
        raise ValueError(f"(m, k) = {math.gcd(m, k)} != 1")
    m2, k2 = m * m, k * k
    m2bar = pow(m2, -1, k2)
    k2bar = pow(k2, -1, m2)
    base = Fraction(m2bar, k2) + Fraction(k2bar, m2) - Fraction(1, m2 * k2)
    if base.denominator != 1:
        return False
    scaled = (
        Fraction(-m2bar * n**3, k2)
        - Fraction(k2bar * n**3, m2)
        + Fraction(n**3, m2 * k2)
    )
    return scaled.denominator == 1


# ---------------------------------------------------------------------------
# Lemma-style reductions and bounds


def lemma3_reduce(p: PhasePolynomial, delta: int) -> PhasePolynomial | None:
    """Divide out delta | (c_n, ..., c_2, Q) from an unrestricted sum.

    If delta does not divide c_1 the sum is exactly 0 and the result is
    None; otherwise the sum equals delta times the sum of the returned
    f/delta mod Q/delta.
    """
    if delta < 1 or p.modulus % delta != 0:
        raise ValueError(f"delta = {delta} must divide Q = {p.modulus}")
    for c in p.coeffs[1:]:
        if c % delta != 0:
            raise ValueError("delta must divide every coefficient above degree 1")
    c1 = p.coeffs[0] if p.coeffs else 0
    if c1 % delta != 0:
        return None
    return PhasePolynomial(tuple(c // delta for c in p.coeffs), p.modulus // delta)


@dataclass(frozen=True)
class LoxtonSchmidtBound:
    eta: int
    semi_disc: int
    bound: float
    sum_abs: float
    holds: bool


def loxton_schmidt(p: PhasePolynomial) -> LoxtonSchmidtBound:
    """Complete-sum bound Q^(1 - 1/(2 eta)) (Delta, Q)^(1/(2 eta)) n^omega(Q).

    eta is the maximal root multiplicity of f', Delta its semi-discriminant
    A^(2n-2) prod_{i != j} (zeta_i - zeta_j)^(eta_i eta_j) computed exactly
    from the coefficients (n = deg f'; cubic and quadratic f supported).
    For quadratic f' this is 9 c3^2 at a double root and 12 c3 c1 - 4 c2^2
    otherwise; for linear f' it is the empty product 1.
    """
    q = p.modulus
    deg = p.degree
    coeffs = p.coeffs + (0,) * (3 - len(p.coeffs))
    c1, c2, c3 = coeffs[0], coeffs[1], coeffs[2]
    if deg > 3:
        raise ValueError("only phases of degree <= 3 are supported")
    if deg == 3:
        n = 2
        disc = 4 * c2 * c2 - 12 * c3 * c1  # discriminant of f' = 3c3 x^2 + 2c2 x + c1
        if disc == 0:
            eta, semi = 2, 9 * c3 * c3
        else:
            eta, semi = 1, -disc
    elif deg == 2:
        n, eta, semi = 1, 1, 1
    else:
        raise ValueError("f' is constant or zero; no bound")
    nomega = n ** len(factorize(q))
    bound = (
        q ** (1.0 - 1.0 / (2 * eta))
        * math.gcd(abs(semi), q) ** (1.0 / (2 * eta))
        * nomega
    )
    sum_abs = abs(raw_phase_sum(p))
    # an unrestricted sum has q terms
    return LoxtonSchmidtBound(eta, semi, bound, sum_abs, sum_abs <= bound + _sum_error(q) + 1e-9)


def lemma1_ratio(c: int, d: int, q: int) -> float:
    """|E(c,d;q)| / ((c,d,q)^(1/2) q^(1/2) d(q)^2), the explored Lemma-1 shape."""
    g = math.gcd(math.gcd(abs(c), abs(d)), q)
    ndiv = 1
    for _, e in factorize(q):
        ndiv *= e + 1
    return abs(E_sum(c, d, q)) / (math.sqrt(g) * math.sqrt(q) * ndiv**2)


# ---------------------------------------------------------------------------
# second Poisson step: CRT factorizations and the explicit F evaluation


def _residual_coeffs(a: int, b: int, h: int, m1: int, l1: int, d: int) -> tuple[int, int]:
    """(c, e) with E(c, e w; d) = E(a^3 b^4 h^2 m1 l1bar^2, a^3 b^2 h w l1bar^2; d),
    l1bar = l1^-1 mod d: the residual modulus-d factor of the explicit
    evaluation, twisted by the inverse of l1^2 mod d."""
    li = pow(l1 * l1, -1, d)
    return a**3 * b**4 * h**2 * m1 * li, a**3 * b**2 * h * li


def _residual_table(a: int, b: int, h: int, m1: int, l1: int, d: int) -> list[complex]:
    """The residual factor E(c, e w; d) of `_residual_coeffs` for w mod d."""
    c, e = _residual_coeffs(a, b, h, m1, l1, d)
    return [E_sum(c, e * w, d) for w in range(d)]


def crt_split_check(
    k2: int,
    k3: int,
    h: int,
    d: int,
    l1: int,
    mstar: int,
    mtilde: int,
    u: int,
) -> tuple[float, float]:
    """Verify the two CRT factorizations of the v-sum mod q*mtilde^2.

    The v-sum over modulus q mtilde^2 (q = k3^3 h d mstar^2) must factor
    into the x-sum mod q times the y-sum mod mtilde^2, and the x-sum must
    factor through residues z mod d and y mod qtilde = q/d.  Note: the
    z-part phase lives mod q, not mod qtilde (the displayed split is off
    there; verified numerically here).
    """
    a, b = 3 // k3, 2 // k2
    q = k3**3 * h * d * mstar * mstar
    am = abs(mtilde)
    mt2 = am * am
    big = q * mt2
    if big > 10**4 * 10:
        raise ValueError(f"modulus {big} too large for the brute-force check")
    if math.gcd(am, q) != 1:
        raise ValueError("(mtilde, q) must be 1")
    if math.gcd(l1, 6 * h * d * mstar * am) != 1:
        raise ValueError("l1 must be invertible mod q*mtilde^2 and coprime to 6")

    linv2 = pow(l1 * l1, -1, big)
    etab = np.array(_residual_table(a, b, h, mstar * mtilde, l1, d))  # at w = v mod d

    k22 = k2 * k2
    v = np.arange(big, dtype=np.int64)
    cv = (linv2 * k22) % big
    ph = (cv * (v * v % big * v % big) + (u % big) * v) % big
    lhs = complex((etab[v % d] * _unit_circle(ph, big)).sum())

    # (reduction): x mod q times y mod mtilde^2
    x = np.arange(q, dtype=np.int64)
    cq = (linv2 % q) * k22 % q * (mt2 * mt2 % q) % q
    phx = (cq * (x * x % q * x % q) + (u % q) * x) % q
    sx_terms = etab[x * mt2 % d] * _unit_circle(phx, q)
    sx = complex(sx_terms.sum())
    cm = (linv2 % mt2) * k22 % mt2 * (q * q % mt2) % mt2
    rhs1 = sx * F_sum(cm, 0, u, mt2)

    # (reduction2): x-sum through z mod d and y mod qtilde, where
    # cq (z + d y)^3 + u (z + d y) leaves F(cq d^2, cq 3dz, cq 3z^2 + u; qtilde)
    qt = q // d
    cqt = cq % qt
    rhs2 = 0j
    for z in range(d):
        phz = (cq * (z * z % q * z % q) + (u % q) * z) % q
        sy2 = F_sum(cqt * d * d, cqt * 3 * d * z, cqt * 3 * z * z + u, qt)
        rhs2 += etab[z * mt2 % d] * e_frac(Fraction(int(phz), q)) * sy2

    return abs(lhs - rhs1), abs(sx - rhs2)


def F_explicit(u: int, mtilde: int, k2: int, q: int, l1: int) -> complex:
    """F(l1bar^2 k2^2 q^2, 0, u; mtilde^2) via the root-sum closed form.

    Equals |mtilde| times the sum over roots x1 of x1^2 = -3bar u
    (mod |mtilde|) of e((x1^3 + u x1) * inv(k2 q) * l1 / mtilde^2), with
    inverses mod mtilde^2.  An empty root set gives exactly 0j.
    """
    am = abs(mtilde)
    mt2 = am * am
    if mt2 > 10**6:
        raise ValueError("mtilde^2 exceeds the 10^6 cap")
    if math.gcd(am, 6) != 1 or math.gcd(k2 * q * l1, am) != 1:
        raise ValueError("need (mtilde, 6) = 1 and (k2 q l1, mtilde) = 1")
    inv3 = pow(3, -1, am)
    target = (-inv3 * u) % am
    roots = sqrt_mod(target, am)
    if not roots:
        return 0j
    invkq = pow(k2 * q, -1, mt2)
    total = 0j
    for x1 in roots:
        total += e_frac(Fraction(((x1**3 + u * x1) * invkq * l1) % mt2, mt2))
    return am * total


def F_explicit_bruteforce(u: int, mtilde: int, k2: int, q: int, l1: int) -> complex:
    """Same sum by direct evaluation (oracle for F_explicit)."""
    am = abs(mtilde)
    mt2 = am * am
    c3 = pow(l1 * l1, -1, mt2) * k2 * k2 % mt2 * (q * q % mt2) % mt2
    return F_sum(c3, 0, u, mt2)


# ---------------------------------------------------------------------------
# Poisson summation, two-sided


@dataclass(frozen=True)
class PoissonCheckResult:
    lhs: complex
    delta: float

    @property
    def rel_delta(self) -> float:
        return self.delta / max(abs(self.lhs), 1e-300)


def poisson_selfdual_1d(s: float) -> PoissonCheckResult:
    """Classical Poisson identity sum Gamma(x/s) = s * sum Gammahat(s m)."""
    zmax = decay_radius(1e-18)
    nx = int(math.ceil(zmax * s)) + 1
    x = np.arange(-nx, nx + 1)
    lhs = float(np.sum(gauss(x / s)))
    nm = int(math.ceil(zmax / s)) + 1
    m = np.arange(-nm, nm + 1)
    rhs = s * float(np.sum(gauss(s * m)))
    return PoissonCheckResult(lhs, abs(lhs - rhs))


def poisson_second_check(
    k2: int,
    k3: int,
    h: int,
    d: int,
    l1: int,
    X: float,
) -> PoissonCheckResult:
    """Two-sided check of the second Poisson application (m* = mtilde = 1).

    lhs: sum over n1 of the twisted weight
         Gammahat(X^4 n1 / (k3 h d l1^2)) e(-k2^2 n1^3 / (k3^3 h d l1^2))
         times E(a^3 b^4 h^2 l1bar^2, a^3 b^2 h n1 l1bar^2; d)
         e(l1bar^2 k2^2 n1^3 / A), with A = k3^3 h d.
    rhs: (l1^2/(X^4 k3^2)) sum over u of I(alpha(u), beta) times the
         complete v-sum mod A, where I is the cubic-phase integral of the
         weight and (alpha, beta) are the s = l1 parameter maps.

    The u-sum is truncated once A + 8 consecutive blocks (u and -u) fall
    to at most 1e-12 of the running total (deterministic rule), capped at
    POISSON_U_CAP.
    """
    from .oscint import I_eval, OscillatoryProblem, ParamContext, param_map

    a, b = 3 // k3, 2 // k2
    A = k3**3 * h * d
    if math.gcd(l1, 6 * h * d) != 1:
        raise ValueError("(l1, 6hd) must be 1")
    linv2 = pow(l1 * l1, -1, A)
    etab = _residual_table(a, b, h, 1, l1, d)
    k22 = k2 * k2
    c1 = k3 * h * d * l1 * l1

    def pfun(n1: int) -> complex:
        theta = Fraction(linv2 * (k22 * n1**3 % A), A)
        return etab[n1 % d] * e_frac(theta)

    zmax = decay_radius(1e-16)
    N = int(math.ceil(zmax * c1 / X**4)) + 1
    lhs = 0j
    for n1 in range(-N, N + 1):
        tw = Fraction(-(k22) * n1**3, A * l1 * l1)
        lhs += gauss(X**4 * n1 / c1) * e_frac(tw) * pfun(n1)

    v = np.arange(A, dtype=np.int64)
    phase_v = ((linv2 * k22 % A) * (v * v % A * v % A)) % A
    evals = np.array([etab[int(x) % d] for x in v])

    def vsum(u: int) -> complex:
        return complex((evals * _unit_circle(phase_v + u * v, A)).sum())

    scale = l1 * l1 / (X**4 * k3 * k3)
    total = 0j
    small = 0
    u = 0
    while u <= POISSON_U_CAP:
        block = 0j
        for uu in {u, -u}:
            alpha, beta, _ = param_map(ParamContext(uu, l1, X, k2, k3, h, d))
            ival = I_eval(OscillatoryProblem(alpha, beta))
            block += ival * vsum(uu)
        total += block
        small = small + 1 if abs(block) <= 1e-12 * abs(total) else 0
        # V(u) is periodic mod A and may vanish on most classes: require a
        # whole quiet period before trusting the decay
        if small >= A + 8:
            break
        u += 1
    else:
        raise ValueError(f"u-sum did not decay within |u| <= {POISSON_U_CAP}")
    rhs = scale * total
    return PoissonCheckResult(lhs, abs(lhs - rhs))


def poisson_check(frame: CongruenceFrame, X: float) -> PoissonCheckResult:
    """Two-sided check of the first Poisson application at a single l.

    lhs: lattice sum of Gamma(k2 h x / X^6) Gamma(k3 h y / X^4) over unit
    pairs with a^3 x^2 + b^2 h y^3 = 0 (mod l^2).
    rhs: (X^10/(k2 k3 h^2 l^4)) sum_{m,n} Gammahat(X^6 m/(k2 h l^2))
    Gammahat(X^4 n/(k3 h l^2)) calE(m, n; l^2).
    """
    if X > 4:
        raise ValueError("X <= 4 for the two-sided check")
    a, b, h, l = frame.a, frame.b, frame.h, frame.l
    k2, k3 = frame.k2, frame.k3
    l2 = l * l
    zmax = decay_radius(POISSON_CUTOFF)

    nx = int(math.ceil(zmax * X**6 / (k2 * h))) + 1
    ny = int(math.ceil(zmax * X**4 / (k3 * h))) + 1
    x = np.arange(-nx, nx + 1, dtype=np.int64)
    y = np.arange(-ny, ny + 1, dtype=np.int64)
    wx = gauss(k2 * h * x / X**6)
    wy = gauss(k3 * h * y / X**4)
    ux = np.gcd(np.abs(x) % l, l) == 1
    uy = np.gcd(np.abs(y) % l, l) == 1
    qx = (a**3 % l2) * ((x % l2) ** 2 % l2) % l2
    ym = y % l2
    qy = (b * b * h % l2) * (ym * ym % l2 * ym % l2) % l2
    bins = np.bincount(qy[uy], weights=wy[uy], minlength=l2)
    lhs = float(np.sum(wx[ux] * bins[(-qx[ux]) % l2]))

    nm = int(math.ceil(zmax * k2 * h * l2 / X**6)) + 1
    nn = int(math.ceil(zmax * k3 * h * l2 / X**4)) + 1
    ms = np.arange(-nm, nm + 1, dtype=np.int64)
    ns = np.arange(-nn, nn + 1, dtype=np.int64)
    wm = gauss(X**6 * ms / (k2 * h * l2))
    wn = gauss(X**4 * ns / (k3 * h * l2))
    cres = np.arange(l2, dtype=np.int64)
    fm = (wm[:, None] * _unit_circle(ms[:, None] * cres[None, :] % l2, l2)).sum(axis=0)
    fn = (wn[:, None] * _unit_circle(ns[:, None] * cres[None, :] % l2, l2)).sum(axis=0)
    cs, ds = cal_E_solutions(frame)
    rhs = complex(X**10 / (k2 * k3 * h * h * l**4) * np.sum(fm[cs] * fn[ds]))
    return PoissonCheckResult(lhs, abs(lhs - rhs))
