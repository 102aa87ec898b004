"""Verification suites.

Each suite runs the identity checks and invariants of one module and
returns structured CheckResults.  This module is the one place where an
identity check is defined: the CLI `verify` subcommand prints these
reports, and the test suite runs each suite once per session
(`tests/conftest.py`) and fails on any failed check, so Tier-1 gates
every check defined here.  All randomness is seeded.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import arith, characters, density, expsum, oscint, sieve
from .deadline import Deadline, TimeBudgetExceeded


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    deviation: float
    detail: str = ""

    def __post_init__(self):
        # a numpy bool would reach `verify --format json` as the string "True"
        object.__setattr__(self, "ok", bool(self.ok))


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return max((c.deviation for c in self.checks), default=0.0)

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.ok), None)


# identity checks pass at absolute error TOL_SCALE * (modulus + 1)
TOL_SCALE = 1e-8


def _tol(modulus: float) -> float:
    return TOL_SCALE * (modulus + 1)


# ---------------------------------------------------------------------------
# arith


def suite_arith(seed: int = 0) -> SuiteReport:
    rep = SuiteReport("arith", seed)
    rng = np.random.default_rng(seed)
    add = rep.checks.append

    n = 10**4
    mu = arith.mobius_table(n)
    rhs = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, math.isqrt(n) + 1):
        rhs[k * k :: k * k] += int(mu[k])
    bad = int(np.count_nonzero(rhs[1:] != (mu[1:].astype(np.int64)) ** 2))
    add(CheckResult("mu2_detection_identity_1e4", bad == 0, bad))

    bad = 0
    for _ in range(10**4):
        m = int(rng.integers(2, 10**6))
        a = int(rng.integers(1, m))
        if math.gcd(a, m) != 1:
            continue
        if a * arith.mod_inverse(a, m) % m != 1:
            bad += 1
    add(CheckResult("mod_inverse_random_1e4", bad == 0, bad))

    bad = 0
    for p in arith.primes_up_to(2000):
        if p == 2:
            continue
        k = 1
        while p ** (k + 1) <= 2000:
            k += 1
        for kk in range(1, k + 1):
            m = p**kk
            table: dict[int, set[int]] = {}
            for x in range(m):
                table.setdefault(x * x % m, set()).add(x)
            for a in range(m):
                got = set(arith.sqrt_mod_prime_power(a, p, kk))
                if got != table.get(a, set()):
                    bad += 1
    add(CheckResult("sqrt_mod_prime_power_exhaustive_2000", bad == 0, bad))

    bad = 0
    for m in range(1, 10**5 + 1):
        f = arith.factorize(m)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        if prod != m:
            bad += 1
    add(CheckResult("factorize_roundtrip_1e5", bad == 0, bad))

    phi = arith.phi_table(500)
    bad = 0
    for m in range(1, 501):
        for k in range(1, 501 // m + 1):
            if m * k <= 500 and math.gcd(m, k) == 1:
                if phi[m * k] != phi[m] * phi[k]:
                    bad += 1
    add(CheckResult("phi_multiplicative_500", bad == 0, bad))

    mersenne = 2**61 - 1
    f = arith.factorize(mersenne)
    add(
        CheckResult(
            "mersenne61_prime",
            f.factors == ((mersenne, 1),) and arith.is_prime(mersenne),
            0.0,
        )
    )
    return rep


# ---------------------------------------------------------------------------
# density (acceptance 1, 2, 10)


def suite_density(seed: int = 0) -> SuiteReport:
    rep = SuiteReport("density", seed)
    add = rep.checks.append

    vals = {4: 8, 9: 27, 25: 45}
    ok = all(density.sigma(q) == v for q, v in vals.items())
    ok = ok and all(density.sigma_pair_bruteforce(q) == v for q, v in vals.items())
    add(CheckResult("sigma_small_enumeration", ok, 0.0, str(vals)))

    third = (Fraction(1) - Fraction(density.sigma(4), 16)) * (
        Fraction(1) - Fraction(density.sigma(9), 81)
    )
    add(CheckResult("one_third_factor_exact", third == Fraction(1, 3), 0.0))

    bad = []
    for p in arith.primes_up_to(100):
        if p <= 3:
            continue
        if density.sigma(p * p) != 2 * p * p - p:
            bad.append(p)
        if p <= 31 and density.sigma_pair_bruteforce(p * p) != 2 * p * p - p:
            bad.append(p)
        if p > 31 and density.sigma_prime_square_structured(p) != 2 * p * p - p:
            bad.append(p)
    add(CheckResult("sigma_p2_formula_le_100", not bad, len(bad), str(bad)))

    bad = 0
    for q1 in range(1, 301):
        for q2 in range(1, 300 // q1 + 1):
            if math.gcd(q1, q2) == 1 and q1 * q2 <= 300:
                if density.sigma(q1 * q2) != density.sigma(q1) * density.sigma(q2):
                    bad += 1
    add(CheckResult("sigma_multiplicative_300", bad == 0, bad))

    e1 = density.euler_product(1, 10**5)
    e2 = density.euler_product(2, 10**5)
    w1, w2 = e1.hi - e1.lo, e2.hi - e2.lo
    overlap = e1.lo <= e2.hi and e2.lo <= e1.hi
    add(
        CheckResult(
            "euler_products_P1e5_overlap_width",
            overlap and w1 < 1e-9 and w2 < 1e-9,
            max(w1, w2),
            f"C1={e1.value:.15f} C2={e2.value:.15f}",
        )
    )
    # P = 10^5, 10^3, 100, 5: each interval holds the last and C2
    nest = [e2] + [density.euler_product(2, P) for P in (10**3, 100, 5)]
    nest_ok = all(r.lo <= e2.value <= r.hi for r in nest) and all(
        r.lo <= prev.lo and prev.hi <= r.hi for prev, r in zip(nest, nest[1:])
    )
    add(CheckResult("euler_product_nesting", nest_ok, 0.0))

    bad = [p for p in arith.primes_up_to(10**4) if p > 3 and not density.per_prime_identity(p)]
    add(CheckResult("per_prime_identity_1e4", not bad, len(bad)))

    s, prod, tail = density.mu_phi_series(1, 10**5, 10**5)
    add(
        CheckResult(
            "mu_phi_series_h1", abs(s - prod) < 2e-5, abs(s - prod), f"tail={tail:.2g}"
        )
    )
    s5, prod5, _ = density.mu_phi_series(5, 10**5, 10**5)
    refit = prod5 * (1.0 - 4 / 125)
    add(CheckResult("mu_phi_series_h5_factor", abs(refit - prod) < 1e-9, abs(refit - prod)))

    res = density.paper_balance()
    ok = (
        res.exponent == density.PAPER_EXPONENT
        and (res.t, res.kappa) == (density.PAPER_T, density.PAPER_KAPPA)
        and res.grid_best >= float(density.PAPER_EXPONENT) - 1e-6
    )
    add(
        CheckResult(
            "balance_paper_preset",
            ok,
            abs(res.grid_best - float(density.PAPER_EXPONENT)),
            f"exact={res.exponent} grid={res.grid_best:.9f}",
        )
    )
    dropped = density.paper_terms()
    del dropped[1]  # remove 16 - 2t, one of the three active terms
    res_d = density.balance_exponents(dropped)
    add(
        CheckResult(
            "balance_dropped_term_smaller",
            res_d.grid_best < float(density.PAPER_EXPONENT) - 0.5,
            res_d.grid_best,
        )
    )
    return rep


# ---------------------------------------------------------------------------
# expsum (acceptance 3, 4)


def _frames_for(ls, hs):
    for l in ls:
        for h in hs:
            if math.gcd(l, 6 * h) != 1:
                continue
            for k2 in (1, 2):
                for k3 in (1, 3):
                    yield expsum.CongruenceFrame(k2, k3, h, l)


def suite_expsum(seed: int = 0) -> SuiteReport:
    rep = SuiteReport("expsum", seed)
    rng = np.random.default_rng(seed)
    add = rep.checks.append
    deadline = Deadline()

    # (exptrans): two-variable sum equals the single-variable sum
    worst = 0.0
    worst_at = ""
    for frame in _frames_for((1, 5, 7, 11, 13), (1, 5, 7)):
        l2 = frame.l**2
        for m in range(-3, 4):
            for n in range(-3, 4):
                two = expsum.cal_E(frame, m, n)
                c, d = expsum.E_arguments(frame, m, n)
                one = expsum.E_sum(c, d, l2)
                dev = abs(two - one)
                if dev > worst:
                    worst, worst_at = dev, f"{frame} m={m} n={n}"
        deadline.check()
    add(
        CheckResult(
            "exptrans_exhaustive_l15",
            worst < TOL_SCALE * 13**2,
            worst,
            worst_at,
        )
    )

    # explicit evaluation vs brute force, square-free l <= 30 coprime to 6
    worst = 0.0
    worst_at = ""
    for l in (1, 5, 7, 11, 13, 17, 19, 23, 29):
        for _ in range(50):
            h = int(rng.choice([1, 5, 7, 11]))
            if math.gcd(l, 6 * h) != 1:
                h = 1
            frame = expsum.CongruenceFrame(
                int(rng.choice([1, 2])), int(rng.choice([1, 3])), h, l
            )
            m = int(rng.integers(-3 * l, 3 * l + 1))
            n = int(rng.integers(-3 * l, 3 * l + 1))
            c, d = expsum.E_arguments(frame, m, n)
            brute = expsum.E_sum(c, d, l * l)
            ex = expsum.evaluate_E_explicit(frame, m, n)
            dev = abs(brute - ex)
            if dev > worst:
                worst, worst_at = dev, f"l={l} h={h} m={m} n={n}"
        deadline.check()
    add(CheckResult("explicit_E_vs_brute_l30", worst < TOL_SCALE * 29**2, worst, worst_at))

    # Gauss-sum product formula
    worst = 0.0
    for q in range(1, 51, 2):
        if not arith.is_squarefree(q):
            continue
        for c in range(1, q + 1):
            if math.gcd(c, q) != 1:
                continue
            dev = abs(expsum.gauss_f(c, q) - expsum.E_sum(0, c, q))
            worst = max(worst, dev)
    add(CheckResult("gauss_f_vs_E0c_q50", worst < 1e-9 * 50, worst))

    # Kloosterman flip, exact rationals
    bad = 0
    for m in range(1, 41):
        for k in range(1, 41):
            if math.gcd(m, k) == 1:
                for n in (1, 2, 7):
                    if not expsum.kloosterman_flip_check(n, m, k):
                        bad += 1
    add(CheckResult("kloosterman_flip_exact_40", bad == 0, bad))

    # Lemma 3 reductions, including zero certificates
    worst = 0.0
    zeros = 0
    for _ in range(500):
        delta = int(rng.choice([1, 2, 3, 4, 5, 6, 9]))
        qt = int(rng.integers(1, 2000 // delta + 1))
        q = delta * qt
        c3 = delta * int(rng.integers(0, qt + 1))
        c2 = delta * int(rng.integers(0, qt + 1))
        c1 = int(rng.integers(0, q))
        poly = expsum.PhasePolynomial((c1, c2, c3), q)
        reduced = expsum.lemma3_reduce(poly, delta)
        direct = expsum.raw_phase_sum(poly)
        if reduced is None:
            zeros += 1
            worst = max(worst, abs(direct))
        else:
            worst = max(worst, abs(direct - delta * expsum.raw_phase_sum(reduced)))
    add(
        CheckResult(
            "lemma3_500_random",
            worst < 1e-9 * 2001 and zeros > 0,
            worst,
            f"{zeros} zero certificates",
        )
    )

    # Loxton-Schmidt bound (acceptance 4)
    ls = expsum.loxton_schmidt(expsum.PhasePolynomial((0, 0, 1), 9))
    ok = ls.eta == 2 and ls.semi_disc == 9 and abs(ls.bound - 18.0) < 1e-12 and ls.holds
    add(CheckResult("loxton_x3_mod9_example", ok, abs(ls.sum_abs - 7.5963), str(ls)))
    viol = 0
    worst_ratio = 0.0
    for _ in range(1000):
        q = int(rng.integers(2, 501))
        c3 = int(rng.integers(1, q))
        c2 = int(rng.integers(0, q))
        c1 = int(rng.integers(0, q))
        r = expsum.loxton_schmidt(expsum.PhasePolynomial((c1, c2, c3), q))
        worst_ratio = max(worst_ratio, r.sum_abs / r.bound)
        if not r.holds:
            viol += 1
    add(CheckResult("loxton_1000_random_cubics", viol == 0, viol, f"max |S|/bound={worst_ratio:.4f}"))
    deadline.check()

    # conjugation and periodicity
    worst = 0.0
    for q in range(1, 201, 7):
        c = int(rng.integers(-50, 50))
        d = int(rng.integers(-50, 50))
        worst = max(
            worst,
            abs(expsum.E_sum(-c, -d, q) - np.conj(expsum.E_sum(c, d, q))),
        )
    add(CheckResult("E_conjugation", worst < 1e-10 * 200, worst))
    worst = 0.0
    for q in range(1, 201, 11):
        c3, c2, c1 = (int(rng.integers(-30, 30)) for _ in range(3))
        a = expsum.F_sum(-c3, -c2, -c1, q)
        b = expsum.F_sum(c3, c2, c1, q)
        worst = max(worst, abs(a - np.conj(b)))
    add(CheckResult("F_conjugation", worst < 1e-10 * 200, worst))
    worst = 0.0
    for q in range(1, 101):
        c = int(rng.integers(0, q + 1))
        d = int(rng.integers(0, q + 1))
        worst = max(
            worst, abs(expsum.E_sum(c + q, d - q, q) - expsum.E_sum(c, d, q))
        )
    add(CheckResult("E_periodicity_q100", worst < 1e-12 * 100, worst))

    # twisted multiplicativity
    worst = 0.0
    for _ in range(40):
        q1 = int(rng.integers(2, 100))
        q2 = int(rng.integers(2, 100))
        if math.gcd(q1, q2) != 1:
            continue
        worst = max(
            worst,
            expsum.multiplicativity_check(
                int(rng.integers(-20, 20)), int(rng.integers(-20, 20)), q1, q2
            ),
        )
    add(CheckResult("E_twisted_multiplicativity", worst < _tol(10**4), worst))

    # F basics and the explicit F evaluation
    okF = abs(expsum.F_sum(0, 0, 0, 7) - 7) < 1e-12
    okF = okF and abs(expsum.F_sum(0, 0, 3, 7)) < 1e-12
    add(CheckResult("F_constant_and_linear", okF, 0.0))
    worst = 0.0
    zero_cases = 0
    for mt in (1, 5, 7, 11, 13, 25, 35, -7, 49):
        for u in range(-6, 7):
            for k2, q, l1 in ((1, 1, 1), (2, 5, 1), (1, 45, 7), (2, 9, 11)):
                if math.gcd(k2 * q * l1, abs(mt)) != 1 or math.gcd(abs(mt), 6) != 1:
                    continue
                ex = expsum.F_explicit(u, mt, k2, q, l1)
                br = expsum.F_explicit_bruteforce(u, mt, k2, q, l1)
                if ex == 0:
                    zero_cases += 1
                worst = max(worst, abs(ex - br))
        deadline.check()
    add(
        CheckResult(
            "F_explicit_vs_brute", worst < _tol(35**2), worst, f"{zero_cases} empty-root cases"
        )
    )

    # CRT splits (reduction) and (reduction2)
    worst1 = worst2 = 0.0
    tested = 0
    tries = 0
    while tested < 100 and tries < 3000:
        tries += 1
        k2 = int(rng.choice([1, 2]))
        k3 = int(rng.choice([1, 3]))
        h = int(rng.choice([1, 5, 7]))
        d = int(rng.choice([1, 5, 7, 11]))
        l1 = int(rng.choice([1, 5, 7, 11]))
        mstar = int(rng.choice([1, 2, 3, 6, -2]))
        mtilde = int(rng.choice([1, 5, 7, 11, 13, -5]))
        u = int(rng.integers(-10, 11))
        q = k3**3 * h * d * mstar * mstar
        big = q * mtilde * mtilde
        if big > 2 * 10**4:
            continue
        if math.gcd(abs(mtilde), q) != 1 or math.gcd(abs(mtilde), 6) != 1:
            continue
        if math.gcd(l1, 6 * h * d * abs(mstar) * abs(mtilde)) != 1:
            continue
        delta1, delta2 = expsum.crt_split_check(k2, k3, h, d, l1, mstar, mtilde, u)
        worst1 = max(worst1, delta1)
        worst2 = max(worst2, delta2)
        tested += 1
        if tested % 20 == 0:
            deadline.check()
    add(
        CheckResult(
            "crt_splits_100_frames",
            tested == 100 and worst1 < _tol(2 * 10**4) and worst2 < _tol(2 * 10**4),
            max(worst1, worst2),
            f"{tested} frames",
        )
    )

    # Lemma 1 shape, reported only
    worst_ratio = 0.0
    arg = ""
    for q in list(range(1, 200)) + list(range(200, 2001, 37)):
        c = int(rng.integers(0, q + 1))
        d = int(rng.integers(0, q + 1))
        ratio = expsum.lemma1_ratio(c, d, q)
        if ratio > worst_ratio:
            worst_ratio, arg = ratio, f"(c,d,q)=({c},{d},{q})"
    rep.artifacts["lemma1_max_ratio"] = {"ratio": worst_ratio, "at": arg}
    add(CheckResult("lemma1_ratio_reported", True, worst_ratio, arg))
    return rep


# ---------------------------------------------------------------------------
# poisson (acceptance 5)


def suite_poisson(seed: int = 0) -> SuiteReport:
    rep = SuiteReport("poisson", seed)
    add = rep.checks.append

    worst = 0.0
    for s in (0.7, 1.0, math.sqrt(2), 2.5):
        worst = max(worst, expsum.poisson_selfdual_1d(s).delta)
    add(CheckResult("gaussian_selfdual_1d", worst < 1e-10, worst))

    r1 = expsum.poisson_check(expsum.CongruenceFrame(1, 1, 1, 5), 2.0)
    add(CheckResult("poisson_frame_l5_X2", r1.rel_delta < 1e-8, r1.rel_delta, f"lhs={r1.lhs:.6f}"))
    r2 = expsum.poisson_check(expsum.CongruenceFrame(1, 1, 1, 7), 3.0)
    add(CheckResult("poisson_frame_l7_X3", r2.rel_delta < 1e-8, r2.rel_delta, f"lhs={r2.lhs:.6f}"))
    return rep


# ---------------------------------------------------------------------------
# oscint (acceptance 6)


def _trapezoid_I(alpha: float, beta: float, h: float, shift: float = 0.0) -> complex:
    """Oracle for I(alpha, beta): the trapezoid sum of the integrand on the
    nodes -4 + shift + k h in [-4, 4].  The weight is below 1e-21 past
    |z| = 4, and for this analytic integrand the sum converges
    geometrically as h shrinks."""
    z = np.arange(-4.0 + shift, 4.0, h)
    return complex(h * np.exp(-np.pi * z * z - 2j * np.pi * (beta * z * z * z + alpha * z)).sum())


def suite_oscint(seed: int = 0) -> SuiteReport:
    rep = SuiteReport("oscint", seed)
    add = rep.checks.append
    deadline = Deadline()

    worst = 0.0
    for alpha in np.arange(-3.0, 3.01, 0.5):
        v = oscint.I_eval(oscint.OscillatoryProblem(float(alpha), 1e-9))
        worst = max(worst, abs(v - math.exp(-math.pi * alpha * alpha)))
    add(CheckResult("I_beta_to_0_gaussian_limit", worst < 1e-5, worst))
    deadline.check()

    ok = all(
        oscint.G_eval(oscint.OscillatoryProblem(a, b)) == 0
        for a in (0.0, 0.5, 3.0)
        for b in (0.5, 1.0, 2.0)
    )
    add(CheckResult("G_zero_for_alpha_nonneg", ok, 0.0))

    # the trapezoid oracle is converged: halving its spacing moves it by < 1e-7
    points = ((-1.0, 1.0), (-5.0, 0.8), (2.0, 1.5), (0.0, 3.0))
    worst = max(
        abs(_trapezoid_I(a, b, 1 / 64) - _trapezoid_I(a, b, 1 / 128)) / 1e-7 for a, b in points
    )
    add(CheckResult("quadrature_tolerance_halving", worst < 1.0, worst))

    worst = max(
        abs(oscint.I_eval(oscint.OscillatoryProblem(a, b)) - _trapezoid_I(a, b, 1 / 128))
        for a, b in points
    )
    add(CheckResult("I_self_oracle_fine_grid", worst < 1e-8, worst))

    # realness from the integrand, on a grid that is not symmetric about 0
    worst = max(
        abs(_trapezoid_I(a, b, 1 / 128, shift=1 / 384).imag)
        for a, b in ((-2.0, 1.0), (1.0, 1.0), (-4.0, 2.0))
    )
    add(CheckResult("I_real_for_even_weight", worst < 1e-8, worst))

    # I1 against a central finite difference in s
    worst = 0.0
    for u, s, X in ((-3, 1.3, 1.0), (2, 1.5, 1.0), (-1, 1.1, 1.0)):
        ctx = oscint.ParamContext(u=u, s=s, X=X)
        h = s * 2e-4
        i1 = oscint.I1_eval(oscint.OscillatoryProblem(*oscint.param_map(ctx)[:2]), s)
        vp = oscint.I_eval(
            oscint.OscillatoryProblem(
                *oscint.param_map(oscint.ParamContext(u=u, s=s + h, X=X))[:2]
            )
        )
        vm = oscint.I_eval(
            oscint.OscillatoryProblem(
                *oscint.param_map(oscint.ParamContext(u=u, s=s - h, X=X))[:2]
            )
        )
        fd = (vp - vm) / (2 * h)
        worst = max(worst, abs(i1 - fd) / (1.0 + abs(i1)))
    add(CheckResult("I1_vs_finite_difference", worst < 1e-5, worst))
    deadline.check()

    # G1 closed form against a finite difference of G through the maps;
    # the amplitude-derivative terms the closed form drops are a few
    # percent here, so a 10% band cleanly detects factor/sign errors
    ctx = oscint.ParamContext(u=-40, s=2.0, X=1.0)
    alpha, beta, _ = oscint.param_map(ctx)
    g1 = oscint.G1_eval(oscint.OscillatoryProblem(alpha, beta), ctx.s)
    h = 1e-5 * ctx.s
    gp = oscint.G_of_s(oscint.ParamContext(u=-40, s=ctx.s + h, X=1.0))
    gm = oscint.G_of_s(oscint.ParamContext(u=-40, s=ctx.s - h, X=1.0))
    fd = (gp - gm) / (2 * h)
    add(
        CheckResult(
            "G1_vs_dG_ds",
            abs(fd - g1) <= 0.1 * abs(g1),
            abs(fd - g1) / abs(g1),
            f"|G1|={abs(g1):.3e}",
        )
    )

    # G1 closed form: amplitude ratio against G
    alpha, beta, s = -3.0, 1.0, 1.0
    ampG = 1.0 / (math.sqrt(2) * (3 * abs(alpha) * beta) ** 0.25)
    ampG1 = 2 * math.pi * math.sqrt(2) * abs(alpha) ** 1.25 / (3**1.75 * beta**0.75 * s)
    predicted = 2 * math.pi * (2 / 3) * abs(alpha) * math.sqrt(abs(alpha) / (3 * beta)) / s
    add(
        CheckResult(
            "G1_amplitude_ratio",
            abs(ampG1 / ampG - predicted) < 1e-12,
            abs(ampG1 / ampG - predicted),
        )
    )

    # param_map spot values
    a1, b1, k1 = oscint.param_map(oscint.ParamContext(u=2, s=10**3, X=10.0))
    ok = abs(a1 - 200.0) < 1e-9 and abs(b1 - 1.0) < 1e-12
    a0, _, _ = oscint.param_map(oscint.ParamContext(u=0, s=5.0, X=1.0))
    ok = ok and a0 == 0.0
    au, bu, ku = oscint.param_map(oscint.ParamContext(u=3, s=1.0, X=1.0))
    ok = ok and (au, bu, ku) == (3.0, 1.0, 1.0)
    add(CheckResult("param_map_values", ok, 0.0))

    rows = oscint.station_envelope_scan()
    ratios = np.array([r.ratio for r in rows])
    med = float(np.median(ratios))
    mx = float(ratios.max())
    rep.artifacts["station_rows"] = rows
    rep.artifacts["station_fit_C"] = mx
    add(
        CheckResult(
            "station_envelope_10x_median",
            mx <= 10 * med,
            mx / med if med > 0 else math.inf,
            f"max={mx:.4g} median={med:.4g} n={len(rows)}",
        )
    )
    deadline.check()

    orows = oscint.omega_scan()
    rep.artifacts["omega_rows"] = orows
    regimes = {r.regime for r in orows}
    add(CheckResult("omega_all_regimes_present", len(regimes) == 3, len(regimes), str(sorted(regimes))))
    worst = max((r.omega_abs for r in orows if r.regime == "u=0"), default=0.0)
    add(CheckResult("omega_u0_bounded_by_1", worst <= 1.0 + 1e-9, worst))
    asserted = [r for r in orows if r.asserted]
    worst = max((r.omega_abs for r in asserted), default=math.inf)
    add(
        CheckResult(
            "omega_decay_regime_below_1e-6",
            bool(asserted) and worst < oscint.OMEGA_ASSERT_LEVEL,
            worst,
            f"{len(asserted)} asserted rows",
        )
    )
    return rep


# ---------------------------------------------------------------------------
# characters (acceptance 7)


def suite_characters(seed: int = 0) -> SuiteReport:
    rep = SuiteReport("characters", seed)
    rng = np.random.default_rng(seed)
    add = rep.checks.append
    deadline = Deadline()

    worst = 0.0
    for q in range(1, 61):
        tabs = np.array([c.table() for c in characters.character_table(q)])
        gram = tabs.conj().T @ tabs  # [n, m] = sum_chi conj(chi(n)) chi(m)
        target = np.zeros((q, q), dtype=complex)
        phi = arith.euler_phi(q)
        for m in range(q):
            if math.gcd(m, q) == 1:
                target[m, m] = phi
        worst = max(worst, float(np.abs(gram - target).max()))
    add(CheckResult("orthogonality_q60", worst < 1e-9, worst))

    worst = 0.0
    for q in range(1, 61):
        for chi in characters.character_table(q):
            t = chi.table()
            m = np.arange(q)
            prod = t[:, None] * t[None, :]
            worst = max(worst, float(np.abs(t[(m[:, None] * m[None, :]) % q] - prod).max()))
    add(CheckResult("complete_multiplicativity_q60", worst < 1e-9, worst))
    deadline.check()

    worst = 0.0
    nprim = 0
    for q in range(1, 201):
        for chi in characters.character_table(q):
            if characters.is_primitive(chi):
                nprim += 1
                worst = max(worst, abs(abs(characters.tau(chi)) - math.sqrt(q)))
    add(CheckResult("tau_primitive_sqrtq_200", worst < 1e-8, worst, f"{nprim} primitive"))
    deadline.check()

    chi0 = characters.principal_character(6)
    ram = sum(
        complex(np.exp(2j * np.pi * x / 6)) for x in range(1, 7) if math.gcd(x, 6) == 1
    )
    t0 = characters.tau(chi0)
    add(
        CheckResult(
            "tau_principal_mod6_ramanujan",
            abs(t0 - ram) < 1e-12 and abs(t0 - arith.mobius(6)) < 1e-12,
            abs(t0 - ram),
        )
    )

    spec = characters.APMobiusSumSpec(0, 10, 0.0, 1, 1, 1)
    m10 = characters.ap_mobius_sum(spec)
    ok = abs(m10 - (-1)) < 1e-12
    s4 = characters.ap_mobius_sum(characters.APMobiusSumSpec(0, 4, 0.5, 1, 1, 1))
    ok = ok and abs(s4 - (-1)) < 1e-12
    empty = characters.ap_mobius_sum(characters.APMobiusSumSpec(5, 5.5, 0.3, 1, 1, 1))
    ok = ok and empty == 0
    add(CheckResult("ap_mobius_examples", ok, 0.0))

    worst = 0.0
    bad = 0
    for _ in range(200):
        w = float(rng.uniform(0, 1))
        R = int(rng.integers(1, 10**4))
        a, r, beta = characters.dirichlet_approximation(w, R)
        if not (1 <= r <= R and math.gcd(a, r) == 1 and abs(beta) <= 1.0 / (r * R) + 1e-15):
            bad += 1
            worst = max(worst, abs(beta) * r * R)
    add(CheckResult("dirichlet_approximation_property", bad == 0, worst))

    # section-13 decomposition, exhaustive in (q1, j, a, r), sampled s
    worst = 0.0
    worst_at = ""
    svals = (1979, 4999, 9973)
    cvals = (6, 42, 150)
    i = 0
    for q1 in range(1, 21):
        for r in range(1, 13):
            s = svals[i % 3]
            C = cvals[(i // 3) % 3]
            i += 1
            res = characters.decomposition_sweep(q1, r, s, C)
            for (j, a), delta in res.items():
                if delta > worst:
                    worst, worst_at = delta, f"q1={q1} j={j} a/r={a}/{r} s={s} C={C}"
        deadline.check()
    add(CheckResult("decomposition_identity_q20_r12", worst < 1e-8, worst, worst_at))

    rows = characters.sj_cancellation_scan((1, 5, 12), (10, 1000, 10**4), (0.0, 0.37, 0.5))
    rep.artifacts["sj_rows"] = rows
    r0 = rows[0]
    add(
        CheckResult(
            "sj_scan_M10_ratio",
            abs(r0.ratio - 1.0 / 10 ** (5 / 6)) < 1e-12,
            r0.ratio,
            "ratio(s=10,q1=1,w=0)",
        )
    )
    return rep


# ---------------------------------------------------------------------------
# sieve (acceptance 8, 9)


def suite_sieve(seed: int = 0) -> SuiteReport:
    rep = SuiteReport("sieve", seed)
    add = rep.checks.append
    deadline = Deadline()
    threads = min(8, os.cpu_count() or 1)

    add(
        CheckResult(
            "delta_value_examples",
            sieve.delta_value(1, 1) == 31
            and sieve.delta_value(-3, 2) == 0
            and sieve.delta_value(0, 1) == 27,
            0.0,
        )
    )

    # one count per box, read by every check below; X = 4 asks for 4
    # workers, the middle run of worker_determinism_1_4_16
    def count(X, threads=1, mode="exact"):
        cfg = sieve.CountConfig(X=X, mode=mode, threads=threads)
        return (sieve.exact_count if mode == "exact" else sieve.smoothed_count)(cfg, deadline)

    exact = {X: count(X, 4 if X == 4 else threads if X >= 3 else 1) for X in range(1, 7)}
    smoothed = {X: count(X, threads if X == 4 else 1, "smoothed") for X in (2, 4)}

    c1 = exact[1].count
    add(CheckResult("exact_count_X1_is_4", c1 == 4, abs(c1 - 4)))
    add(CheckResult("tiny_oracle_X1", sieve.naive_count_tiny(1) == 4, 0.0))

    bad = []
    for X in (1, 2, 3, 4):
        got = exact[X].count
        want = sieve.naive_squarefree_count(X)
        if got != want:
            bad.append((X, got, want))
        if X <= 2 and got != sieve.naive_count_tiny(X):
            bad.append((X, got, "tiny"))
        deadline.check()
    add(CheckResult("oracle_equality_X_1234", not bad, len(bad), str(bad)))

    bad = []
    for X in (1, 2, 3):
        lhs, rhs, ok = sieve.mobius_sieve_identity(X)
        if not ok:
            bad.append((X, lhs, rhs))
    add(CheckResult("mobius_sieve_identity_X123", not bad, len(bad), str(bad)))

    s12 = sieve.S_term(1, 2)
    s15 = sieve.S_term(1, 5)
    s11 = sieve.S_term(1, 1)
    add(CheckResult("S_term_examples", s12 == 2 and s15 == 0 and s11 == 8, 0.0, f"{s12},{s15},{s11}"))

    t_small, shape = sieve.tail_S2(1, 3)
    t_empty, _ = sieve.tail_S2(2, 4 * 2**6 * 8)
    t2, shape2 = sieve.tail_S2(2, 2)
    add(
        CheckResult(
            "tail_S2_values",
            t_small == 0 and t_empty == 0 and abs(t2) <= shape2,
            abs(t2),
            f"tail(2,2)={t2} shape={shape2:.0f}",
        )
    )

    # threads 1, 4 and 16 at X = 4: the last two start a pool of
    # min(threads, CPU count) workers, each counting its shard of the stripes
    runs = [count(4, 1), exact[4], count(4, 16)]
    same = (
        runs[0].count == runs[1].count == runs[2].count
        and runs[0].stripe_digest == runs[1].stripe_digest == runs[2].stripe_digest
    )
    add(CheckResult("worker_determinism_1_4_16", same, 0.0, f"count={runs[0].count}"))
    deadline.check()

    sm = smoothed[2].weighted
    direct = sieve.naive_weighted_sum(2)
    rel = abs(sm - direct) / abs(direct)
    add(CheckResult("smoothed_X2_vs_direct_oracle", rel < 1e-10, rel, f"sum={sm:.6f}"))

    # the sieve's root kernel against the scalar path on sampled (A, p):
    # the same root set both ways (none for a non-residue), and every root
    # a root
    rng = np.random.default_rng(seed)
    Amax, Bmax = 3**4, 3**6
    dmax = 4 * Amax**3 + 27 * Bmax**2
    ps = arith.primes_up_to(math.isqrt(dmax))
    checked = 0
    draws = []
    while checked < 10**5:
        A = int(rng.integers(-Amax, Amax + 1))
        checked += 1
        if A % 3 == 0:
            continue
        p = int(ps[int(rng.integers(2, len(ps)))])
        if A % p == 0:
            continue
        p2 = p * p
        t = (-4 * A**3) * pow(27, -1, p2) % p2
        want = set(arith.sqrt_mod_prime_power(t, p, 2))
        checked += len(want)
        draws.append((A, p, want))
    # one stage-1 pass over every drawn A and p; with Bmax >= max p^2 each
    # root R comes back as a progression mod p^2, from its first cell
    As = np.unique([d[0] for d in draws])
    ps = np.unique([d[1] for d in draws])
    stage = sieve._RootStage(As, int(ps[-1]) ** 2)
    found = stage.run(ps)
    got = {}
    for row, start, m in zip(found.rows.tolist(), found.starts.tolist(), found.mods.tolist()):
        got.setdefault((int(As[row]), m), set()).add((stage.lo + 2 * start) % m)
    bad = sum(
        (roots := got.get((A, p * p), set())) != want
        or any((27 * b * b + 4 * A**3) % (p * p) for b in roots)
        for A, p, want in draws
    )
    add(CheckResult("stripe_root_soundness_1e5", bad == 0, bad, f"{checked} samples"))

    rows = sieve.compare_main_term([exact[X] for X in (3, 4, 5, 6)])
    rep.artifacts["main_term_rows"] = rows
    main = {r.X: (r.main_lo + r.main_hi) / 2 for r in rows}  # 4 C X^10
    rel = {r.X: abs(r.count_or_sum / main[r.X] - 1.0) for r in rows}
    # smoothing shrinks the relative residual against the main term:
    # C X^10 for the weighted sum, 4 C X^10 for the exact count
    rel_sm = abs(smoothed[4].weighted / (main[4] / 4) - 1.0)
    add(
        CheckResult(
            "smoothed_X4_residual_below_exact",
            rel_sm < rel[4],
            rel_sm,
            f"smoothed {rel_sm:.3e} < exact {rel[4]:.3e}",
        )
    )
    r7 = {r.X: abs(r.residual_over_X7) for r in rows}
    trend_ok = rel[6] < rel[3]
    bound_ok = all(r7[X] <= 10 * r7[3] for X in (4, 5, 6))
    add(
        CheckResult(
            "main_term_trend_X6_vs_X3",
            trend_ok,
            rel[6],
            f"rel={ {k: round(v, 6) for k, v in rel.items()} }",
        )
    )
    add(
        CheckResult(
            "residual_over_X7_bounded",
            bound_ok,
            max(r7.values()),
            f"r/X^7={ {k: round(v, 4) for k, v in r7.items()} }",
        )
    )
    return rep


SUITES = {
    "arith": suite_arith,
    "expsum": suite_expsum,
    "characters": suite_characters,
    "oscint": suite_oscint,
    "density": suite_density,
    "sieve": suite_sieve,
    "poisson": suite_poisson,
}


def run_suite(name: str, seed: int = 0) -> list[SuiteReport]:
    """The reports of suite `name`, or of every suite for "all".  A suite
    that raises (other than on the deadline) reports one failing check that
    carries the exception, and the suites after it still run."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    reports = []
    for n in SUITES if name == "all" else [name]:
        try:
            reports.append(SUITES[n](seed))
        except TimeBudgetExceeded:
            raise
        except Exception as exc:
            reports.append(SuiteReport(n, seed, [CheckResult("raised", False, 0.0, repr(exc))]))
    return reports
