"""The benchmark's workloads: scripted sequences of calls into deltasieve.

Each workload has a warm-up call (the ``setup_s`` probe runs it in a fresh
interpreter) and a pass.  A pass makes its calls through a ``Tracer`` and
gates every output against ``reference.json`` or an oracle, returning an
``Outcome``: outputs attempted, the names of failed outputs, the items the
pass finished and the exact counters behind the per-layer ratios.

Sizes: ``full`` is what BENCHMARK.json runs; ``smoke`` is the same sequence
shrunk to a few seconds for the tests.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from deltasieve import arith, density, oscint, sieve, suites

COUNT_X = {"full": (3, 4, 5), "smoke": (1, 2, 3)}
EULER_PRIME_BOUND = 10**5

VERIFY_SUITES = {
    "full": ("arith", "density", "expsum", "poisson", "oscint", "characters"),
    "smoke": ("expsum", "poisson", "oscint"),
}
# (X for exact_count vs the value-bitmap oracle, X for the trial-division
#  oracle, X for the Mobius identity, X of the parallel digest check)
VERIFY_SIEVE = {
    "full": ((1, 2, 3, 4), (1, 2), (1, 2, 3), 4),
    "smoke": ((1, 2), (1, 2), (1, 2), 2),
}
SMOOTHED_X = 2
SMOOTHED_RTOL = 1e-12

# u-sum of the second Poisson step at d = 3: every call shares beta = 9.
QUAD_BETA = 9.0
QUAD_U = 250
QUAD_TOL = 1e-10
QUAD_CALLS = {"full": 400, "smoke": 20}
STATION_POINTS = {"full": 24, "smoke": 4}
I1_CONTEXTS = (
    oscint.ParamContext(u=-6, s=8.0, X=2.0),
    oscint.ParamContext(u=-21, s=16.0, X=2.0),
    oscint.ParamContext(u=-4, s=8.0, X=2.0, k2=2, k3=3),
)
IMAG_LIMIT = 1e-8  # the weight is even, so every I is real
RECHECK_SHARE = 0.05


@dataclass
class Outcome:
    items: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    recheck: list = field(default_factory=list)  # (name, problem, value)

    def gate(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def bump(self, key: str, n=1):
        self.counters[key] = self.counters.get(key, 0) + n


def pool_threads() -> int:
    return min(2, os.cpu_count() or 1)


def _box(X: int) -> tuple[int, int]:
    """(pairs, primes sieved) of the exact box at X."""
    Amax, Bmax = X**4, X**6
    dmax = 4 * Amax**3 + 27 * Bmax**2
    return (2 * Amax + 1) * (2 * Bmax + 1), len(arith.primes_up_to(math.isqrt(dmax)))


def _gate_count(out: Outcome, name: str, res: sieve.CountResult, X: int, ref: dict):
    out.gate(
        name,
        res.count == ref["counts"][str(X)] and res.stripe_digest == ref["digests"][str(X)],
    )
    pairs, primes = _box(X)
    out.bump("sieve.pairs", pairs)
    out.bump("sieve.primes", primes)
    out.bump("sieve.survivors", res.count)


# ---------------------------------------------------------------------------
# count


def warmup_count():
    sieve.exact_count(sieve.CountConfig(X=2))


def run_count(t, seed: int, size: str, ref: dict) -> Outcome:
    """Exact counts at the reference sizes; the seed changes nothing."""
    out = Outcome()
    results = {}
    for X in COUNT_X[size]:
        res = t.call(
            "sieve.exact_count", sieve.exact_count, sieve.CountConfig(X=X),
            tags={"X": X, "threads": 1}, memory=True,
        )
        _gate_count(out, f"exact_count.X{X}", res, X, ref)
        results[X] = res
    const = t.call("density.euler_product", density.euler_product, 1, EULER_PRIME_BOUND)
    out.gate(
        "euler_product",
        const.lo <= ref["euler_product_1e5"] <= const.hi and const.hi - const.lo < 1e-15,
    )
    out.items = out.counters["sieve.pairs"]
    out.info["residual_over_X7"] = {
        X: (r.count - 4 * const.value * X**10) / X**7 for X, r in results.items()
    }
    return out


# ---------------------------------------------------------------------------
# verify


def warmup_verify():
    suites.run_suite("poisson", 0)


def run_verify(t, seed: int, size: str, ref: dict) -> Outcome:
    """Six analytic suites plus the sieve's oracles; an item is a check."""
    out = Outcome()
    out.counters.update({"suites.checks": 0, "suites.checks_failed": 0})
    for name in VERIFY_SUITES[size]:
        reps = t.call(
            "suites.run_suite", suites.run_suite, name, seed, tags={"suite": name}
        )
        seen = set()
        for rep in reps:
            for c in rep.checks:
                seen.add(c.name)
                out.gate(f"{name}.{c.name}", bool(c.ok))
                out.bump("suites.checks")
                out.bump("suites.checks_failed", int(not c.ok))
        out.gate(f"{name}.check_names", seen == set(ref["suite_checks"][name]))

    oracle_x, tiny_x, mobius_x, par_x = VERIFY_SIEVE[size]
    single = {}
    for X in oracle_x:
        res = t.call(
            "sieve.exact_count", sieve.exact_count, sieve.CountConfig(X=X),
            tags={"X": X, "threads": 1}, memory=True,
        )
        naive = t.call(
            "sieve.naive_squarefree_count", sieve.naive_squarefree_count, X, memory=True
        )
        _gate_count(out, f"sieve.exact_count.X{X}", res, X, ref)
        out.gate(f"sieve.naive_squarefree_count.X{X}", naive == res.count)
        single[X] = res
    for X in tiny_x:
        n = t.call("sieve.naive_count_tiny", sieve.naive_count_tiny, X)
        out.gate(f"sieve.naive_count_tiny.X{X}", n == ref["counts"][str(X)])
    for X in mobius_x:
        lhs, rhs, ok = t.call("sieve.mobius_sieve_identity", sieve.mobius_sieve_identity, X)
        out.gate(f"sieve.mobius_sieve_identity.X{X}", ok and lhs == ref["counts"][str(X)])
    sm = t.call(
        "sieve.smoothed_count", sieve.smoothed_count,
        sieve.CountConfig(X=SMOOTHED_X, mode="smoothed"),
    )
    nw = t.call("sieve.naive_weighted_sum", sieve.naive_weighted_sum, SMOOTHED_X)
    out.gate(
        f"sieve.smoothed_count.X{SMOOTHED_X}",
        abs(sm.weighted - nw) <= SMOOTHED_RTOL * abs(nw),
    )
    threads = pool_threads()
    par = t.call(
        "sieve.exact_count", sieve.exact_count,
        sieve.CountConfig(X=par_x, threads=threads),
        tags={"X": par_x, "threads": threads},
    )
    out.gate(
        f"sieve.parallel_digest.X{par_x}",
        par.stripe_digest == single[par_x].stripe_digest == ref["digests"][str(par_x)],
    )
    out.items = out.attempted
    return out


# ---------------------------------------------------------------------------
# quadrature


def warmup_quadrature():
    oscint.I_eval(oscint.OscillatoryProblem(1.0, QUAD_BETA, tolerance=QUAD_TOL))


def station_grid(rng, n: int) -> list[tuple[float, float]]:
    """Seeded (alpha, beta) inside station_envelope_scan's default band:
    z0^2 = |alpha| / (3 beta) in [0.7, 1.3], beta in [0.5, 5]."""
    beta = rng.uniform(0.5, 5.0, n)
    z0sq = rng.uniform(0.7, 1.3, n)
    return [(float(-3.0 * b * z), float(b)) for b, z in zip(beta, z0sq)]


def run_quadrature(t, seed: int, size: str, ref: dict) -> Outcome:
    """Shared-beta I_eval calls, then scans with distinct betas; an item is
    an integral evaluated."""
    rng = np.random.default_rng(seed)
    out = Outcome()
    out.counters["oscint.quadrature_errors"] = 0
    betas = []

    def gate(name, ok):
        out.gate(name, ok)
        out.bump("oscint.quadrature_errors", int(not ok))

    for i, u in enumerate(rng.integers(-QUAD_U, QUAD_U + 1, QUAD_CALLS[size])):
        prob = oscint.OscillatoryProblem(float(u), QUAD_BETA, tolerance=QUAD_TOL)
        v = t.call("oscint.I_eval", oscint.I_eval, prob)
        gate(f"I_eval.{i}.u{u}", abs(v.imag) <= IMAG_LIMIT)
        out.recheck.append((f"I_eval.{i}.u{u}.recheck", prob, v))
        betas.append(QUAD_BETA)

    grid = station_grid(rng, STATION_POINTS[size])
    rows = t.call("oscint.station_envelope_scan", oscint.station_envelope_scan, grid)
    for r in rows:
        gate(f"station.a{r.alpha:.6g}.b{r.beta:.6g}", abs(r.I_im) <= IMAG_LIMIT)
        betas.append(r.beta)

    orows = t.call("oscint.omega_scan", oscint.omega_scan)
    for r in orows:
        gate(f"omega.u{r.u}.s{r.s:g}", not r.asserted or r.omega_abs < oscint.OMEGA_ASSERT_LEVEL)
        betas.append(r.beta)

    for ctx in I1_CONTEXTS:
        alpha, beta, _ = oscint.param_map(ctx)
        prob = oscint.OscillatoryProblem(alpha, beta, tolerance=1e-9)
        i1, _ = t.call("oscint.I1_G1_eval", oscint.I1_G1_eval, prob, ctx.s)
        gate(f"I1_G1.u{ctx.u}.s{ctx.s:g}", abs(i1.imag) <= IMAG_LIMIT * max(1.0, abs(i1)))

    out.items = out.attempted
    out.counters["oscint.betas"] = betas
    return out


def recheck_quadrature(out: Outcome, seed: int):
    """Untimed: a seeded share of the shared-beta integrals again at a tenth
    of the tolerance; each must agree within the tolerance."""
    rng = np.random.default_rng(seed + 1)
    n = max(1, round(RECHECK_SHARE * len(out.recheck)))
    for j in sorted(rng.choice(len(out.recheck), n, replace=False)):
        name, prob, v = out.recheck[j]
        fine = oscint.I_eval(
            oscint.OscillatoryProblem(prob.alpha, prob.beta, tolerance=prob.tolerance / 10)
        )
        ok = abs(fine - v) <= prob.tolerance
        out.gate(name, ok)
        out.bump("oscint.quadrature_errors", int(not ok))
    out.recheck.clear()


@dataclass(frozen=True)
class Workload:
    warmup: Callable[[], None]
    run: Callable[..., Outcome]
    recheck: Callable[[Outcome, int], None] | None = None


WORKLOADS = {
    "count": Workload(warmup_count, run_count),
    "verify": Workload(warmup_verify, run_verify),
    "quadrature": Workload(warmup_quadrature, run_quadrature, recheck_quadrature),
}
