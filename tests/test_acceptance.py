"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion but the X = 6 stripe digest is a lookup on a suite
report from `conftest.py`; the tolerances live in `deltasieve.suites`, and
the time bounds apply to the timed suite run.
`test_remaining_module_invariants` fails on any failed check of any
suite, so the checks no criterion names are gated too.
"""

import json
from pathlib import Path

import pytest

from deltasieve import sieve, suites

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

SIEVE_CHECKS = {
    "delta_value_examples",
    "exact_count_X1_is_4",
    "tiny_oracle_X1",
    "oracle_equality_X_1234",
    "mobius_sieve_identity_X123",
    "S_term_examples",
    "tail_S2_values",
    "worker_determinism_1_4_16",
    "smoothed_X2_vs_direct_oracle",
    "stripe_root_soundness_1e5",
    "smoothed_X4_residual_below_exact",
    "main_term_trend_X6_vs_X3",
    "residual_over_X7_bounded",
}


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _all_ok(run, names):
    return all(run.check(n).ok for n in names)


def test_criterion_01_local_densities(suite_run):
    run = suite_run("density")
    ok = _all_ok(run, ["sigma_small_enumeration", "one_third_factor_exact", "sigma_p2_formula_le_100"])
    ok &= run.seconds < 30
    _report(
        1,
        ok,
        "sigma(4,9,25)=(8,27,45), 1/3 factor exact, sigma(p^2)=2p^2-p for 3<p<=100 "
        f"({run.seconds:.1f}s)",
    )


def test_criterion_02_constant_agreement(suite_run):
    run = suite_run("density")
    ok = _all_ok(run, ["euler_products_P1e5_overlap_width", "per_prime_identity_1e4"])
    ok &= run.seconds < 30
    c = run.check("euler_products_P1e5_overlap_width")
    _report(
        2,
        ok,
        f"{c.detail}, max width {c.deviation:.2e}, per-prime identity p<=1e4 exact "
        f"({run.seconds:.1f}s)",
    )


def test_criterion_03_expsum_identity_suite(suite_run):
    run = suite_run("expsum")
    need = [
        "exptrans_exhaustive_l15",
        "explicit_E_vs_brute_l30",
        "gauss_f_vs_E0c_q50",
        "kloosterman_flip_exact_40",
        "lemma3_500_random",
        "crt_splits_100_frames",
    ]
    dev = max(run.check(n).deviation for n in need)
    _report(3, _all_ok(run, need), f"exptrans/explicit-E/gauss_f/Kloosterman/Lemma3/CRT all pass, max dev {dev:.2e}")


def test_criterion_04_loxton_schmidt_bound(suite_run):
    c = suite_run("expsum").check("loxton_1000_random_cubics")
    _report(4, c.ok and c.deviation == 0, f"1000 random cubic phases Q<=500, violations={int(c.deviation)} ({c.detail})")


def test_criterion_05_poisson_two_sided(suite_run):
    run = suite_run("poisson")
    ok = run.report.ok and run.seconds < 120
    _report(
        5,
        ok,
        "selfdual<1e-10 "
        f"(dev {run.check('gaussian_selfdual_1d').deviation:.1e}), frames (l=5,X=2) rel "
        f"{run.check('poisson_frame_l5_X2').deviation:.1e}, (l=7,X=3) rel "
        f"{run.check('poisson_frame_l7_X3').deviation:.1e} ({run.seconds:.1f}s)",
    )


def test_criterion_06_oscillatory_integrals(suite_run):
    run = suite_run("oscint")
    need = [
        "I_beta_to_0_gaussian_limit",
        "I1_vs_finite_difference",
        "G_zero_for_alpha_nonneg",
        "station_envelope_10x_median",
        "omega_decay_regime_below_1e-6",
    ]
    _report(
        6,
        _all_ok(run, need),
        f"Gaussian limit dev {run.check('I_beta_to_0_gaussian_limit').deviation:.1e}, FD dev "
        f"{run.check('I1_vs_finite_difference').deviation:.1e}, station max/median "
        f"{run.check('station_envelope_10x_median').deviation:.2f}, |Omega| decay regime "
        f"{run.check('omega_decay_regime_below_1e-6').deviation:.1e}",
    )


def test_criterion_07_characters(suite_run):
    run = suite_run("characters")
    need = [
        "orthogonality_q60",
        "tau_primitive_sqrtq_200",
        "decomposition_identity_q20_r12",
    ]
    ok = _all_ok(run, need) and run.seconds < 180
    _report(
        7,
        ok,
        f"orthogonality q<=60, |tau|=sqrt(q) dev {run.check('tau_primitive_sqrtq_200').deviation:.1e}, "
        f"decomposition dev {run.check('decomposition_identity_q20_r12').deviation:.1e} ({run.seconds:.1f}s)",
    )


def test_criterion_08_counting(suite_run):
    run = suite_run("sieve")
    need = [
        "oracle_equality_X_1234",
        "mobius_sieve_identity_X123",
        "exact_count_X1_is_4",
        "worker_determinism_1_4_16",
    ]
    _report(
        8,
        _all_ok(run, need),
        f"oracle equality X=1..4 exact, Mobius identity X<=3 exact, count(1)=4, "
        f"bit-identical over 1/4/16 workers ({run.check('worker_determinism_1_4_16').detail})",
    )


def test_criterion_09_main_term_trend(suite_run):
    run = suite_run("sieve")
    trend, resid = run.check("main_term_trend_X6_vs_X3"), run.check("residual_over_X7_bounded")
    _report(9, trend.ok and resid.ok, f"{trend.detail}; {resid.detail}")


def test_main_term_rows_pin_counts(suite_run):
    """The sieve suite's main-term rows, with no extra count run: X = 3..6
    equal the reference counts (X = 6 is past the value-space oracle's X = 4)."""
    rows = suite_run("sieve").report.artifacts["main_term_rows"]
    got = {r.X: r.count_or_sum for r in rows}
    assert got == {3: 66316, 4: 1178600, 5: 10954444, 6: 67796564}


def test_x6_stripe_digest():
    """The one criterion that counts outside the suites: X = 6 in one
    process pins every stripe summary, not just the total."""
    res = sieve.exact_count(sieve.CountConfig(X=6))
    digest = "8b2ba15d45852c78a6f8a59c31e3d131adecc521b7437db029f9045631e90888"
    assert (res.count, res.stripe_digest) == (67796564, digest)


def test_criterion_10_exponent_balancer(suite_run):
    run = suite_run("density")
    c = run.check("balance_paper_preset")
    ok = c.ok and run.seconds < 60
    _report(10, ok, f"preset paper -> 184/27 at (124/27, 16/31); {c.detail} ({run.seconds:.1f}s)")


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_remaining_module_invariants(suite_run, name):
    """Every check of every suite, beyond the numbered criteria."""
    fail = suite_run(name).report.first_failure()
    assert fail is None, f"{name}.{fail.name}: {fail.detail}"


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_suite_check_names(suite_run, name):
    """No check is dropped or renamed without this list changing with it."""
    if name == "sieve":
        want = SIEVE_CHECKS
    else:
        want = set(json.loads(REFERENCE.read_text())["suite_checks"][name])
    assert {c.name for c in suite_run(name).report.checks} == want
