import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasieve import arith
from deltasieve import characters as ch


def test_character_table_sizes():
    assert len(ch.character_table(1)) == 1
    for q in (2, 3, 4, 5, 8, 12, 30, 49):
        assert len(ch.character_table(q)) == arith.euler_phi(q)


def test_q5_values_at_2_are_fourth_roots():
    vals = sorted(
        (complex(np.round(c(2), 10)) for c in ch.character_table(5)),
        key=lambda z: (z.real, z.imag),
    )
    assert vals == sorted([1, -1, 1j, -1j], key=lambda z: (z.real, z.imag))


def test_q8_characters_real():
    for c in ch.character_table(8):
        for n in range(8):
            assert abs(c(n).imag) < 1e-12


def test_principal_and_units():
    chi0 = ch.principal_character(12)
    for n in range(12):
        want = 1 if math.gcd(n, 12) == 1 else 0
        assert abs(chi0(n) - want) < 1e-12
    for chi in ch.character_table(12):
        assert abs(chi(1) - 1) < 1e-12


def test_orthogonality_and_multiplicativity():
    for q in (7, 8, 12, 15, 16, 24):
        tabs = np.array([c.table() for c in ch.character_table(q)])
        gram = tabs.conj().T @ tabs
        phi = arith.euler_phi(q)
        for m in range(q):
            for n in range(q):
                want = phi if (m == n and math.gcd(m, q) == 1) else 0
                assert abs(gram[m, n] - want) < 1e-10
        m = np.arange(q)
        for t in tabs:
            assert np.abs(t[(m[:, None] * m[None, :]) % q] - t[:, None] * t[None, :]).max() < 1e-10


def test_tau():
    assert abs(ch.tau(ch.principal_character(1)) - 1) < 1e-14
    for chi in ch.character_table(5):
        if not chi.is_principal:
            assert abs(abs(ch.tau(chi)) - math.sqrt(5)) < 1e-12
    assert abs(ch.tau(ch.principal_character(6)) - arith.mobius(6)) < 1e-12


def test_is_primitive():
    # mod 4: the non-principal character is primitive
    prim4 = [c for c in ch.character_table(4) if ch.is_primitive(c)]
    assert len(prim4) == 1 and not prim4[0].is_principal
    # mod 6 has no primitive characters (conductor is 1 or 3)
    assert not any(ch.is_primitive(c) for c in ch.character_table(6))
    for q in (5, 7, 11, 13):
        nprim = sum(ch.is_primitive(c) for c in ch.character_table(q))
        assert nprim == arith.euler_phi(q) - 1
    # sum_{d | q} mu(q / d) phi(d) primitive characters mod q
    for q in range(1, 101):
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        want = sum(arith.mobius(q // d) * arith.euler_phi(d) for d in divisors)
        assert sum(ch.is_primitive(c) for c in ch.character_table(q)) == want, q


def oracle_chi(chi: ch.DirichletCharacter, n: int) -> complex:
    """chi(n) from the exact angle sum_i k_i t_i / n_i as a Fraction."""
    q = chi.modulus
    n %= q
    if q == 1:
        return 1 + 0j
    if math.gcd(n, q) != 1:
        return 0j
    ang = Fraction(0)
    i = 0
    for comp in ch.unit_group(q):
        for t, order in zip(comp.dlog[n % comp.prime_power], comp.orders):
            ang += Fraction(chi.exponents[i] * t, order)
            i += 1
    return complex(np.exp(2j * np.pi * float(ang % 1)))


def test_table_bytes_match_fraction_oracle():
    for q in range(1, 61):
        for chi in ch.character_table(q):
            want = np.array([oracle_chi(chi, n) for n in range(q)])
            assert chi.table().tobytes() == want.tobytes(), (q, chi.exponents)


@st.composite
def character_and_points(draw):
    q = draw(st.integers(1, ch.MAX_CHARACTER_MODULUS))
    orders = [n for comp in ch.unit_group(q) for n in comp.orders]
    exps = tuple(draw(st.integers(0, n - 1)) for n in orders)
    ns = draw(st.lists(st.integers(-3 * q, 3 * q), min_size=1, max_size=20))
    return ch.DirichletCharacter(q, exps), ns


@settings(derandomize=True, max_examples=100, deadline=None)
@given(character_and_points())
def test_values_match_fraction_oracle(case):
    chi, ns = case
    for n in ns:
        want = oracle_chi(chi, n)
        assert np.array([chi(n)]).tobytes() == np.array([want]).tobytes(), n


def test_call_semantics():
    assert ch.principal_character(1)(0) == 1
    assert ch.principal_character(1)(-7) == 1
    for q in (9, 12, 40):
        for chi in ch.character_table(q):
            t = chi.table()
            for n in range(-2 * q, 3 * q):
                v = chi(n)
                assert type(v) is complex
                assert v == t[n % q]
                if math.gcd(n, q) != 1:
                    assert v == 0j
                else:
                    assert abs(abs(v) - 1) < 1e-12


def test_tau_largest_prime_modulus():
    q = 9973  # the largest prime below MAX_CHARACTER_MODULUS
    assert arith.is_prime(q) and q <= ch.MAX_CHARACTER_MODULUS
    chi = ch.DirichletCharacter(q, (1,))
    assert not chi.is_principal and ch.is_primitive(chi)
    assert abs(abs(ch.tau(chi)) - math.sqrt(q)) < 1e-9


def test_ap_mobius_sum():
    assert ch.ap_mobius_sum(ch.APMobiusSumSpec(0, 10, 0.0, 1, 1, 1)) == pytest.approx(-1)
    assert ch.ap_mobius_sum(ch.APMobiusSumSpec(0, 4, 0.5, 1, 1, 1)) == pytest.approx(-1)
    assert ch.ap_mobius_sum(ch.APMobiusSumSpec(6, 6.9, 0.1, 1, 1, 1)) == 0
    # coprimality and progression filters
    v = ch.ap_mobius_sum(ch.APMobiusSumSpec(0, 30, 0.0, 3, 1, 10))
    direct = sum(
        arith.mobius(n)
        for n in range(1, 31)
        if n % 3 == 1 and math.gcd(n, 10) == 1
    )
    assert v == pytest.approx(direct)
    with pytest.raises(ValueError):
        ch.APMobiusSumSpec(0, 10, 0.0, 4, 2, 1)  # (j, q1) != 1


def test_decomposition_examples():
    assert ch.decomposition_sweep(7, 1, 1500)[(2, 1)] < 1e-10
    assert ch.decomposition_sweep(5, 3, 2000)[(2, 1)] < 1e-8
    assert ch.decomposition_sweep(7, 5, 5000)[(3, 2)] < 1e-8
    assert ch.decomposition_sweep(12, 8, 4000, 30)[(5, 3)] < 1e-8
    with pytest.raises(ValueError):
        ch.decomposition_sweep(21, 3, 100)


def test_dirichlet_approximation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = float(rng.uniform(-2, 2))
        R = int(rng.integers(1, 5000))
        a, r, beta = ch.dirichlet_approximation(w, R)
        assert 1 <= r <= R
        assert math.gcd(a, r) == 1
        assert abs(beta) <= 1.0 / (r * R) + 1e-14
    a, r, beta = ch.dirichlet_approximation(0.5, 10)
    assert (a, r) == (1, 2) and beta == 0


def test_dirichlet_check_fails_on_broken_draws(monkeypatch):
    """r = 4 and gcd(a, r) = 2 violate the property even with beta = 0."""
    from deltasieve import suites

    monkeypatch.setattr(ch, "dirichlet_approximation", lambda w, R: (2, 4, 0.0))
    check = {c.name: c for c in suites.suite_characters(0).checks}
    assert not check["dirichlet_approximation_property"].ok


def test_mertens_1e7_segmented():
    # forces the segmented mu path; M(10^7) = 1037 is a known value
    v = ch.ap_mobius_sum(ch.APMobiusSumSpec(0, 10**7, 0.0, 1, 1, 1))
    assert v.real == pytest.approx(1037, abs=1e-6)
    assert abs(v.imag) < 1e-9


def test_sj_scan():
    rows = ch.sj_cancellation_scan((1, 5), (10, 100), (0.0, 0.37))
    assert rows[0].ratio == pytest.approx(1 / 10 ** (5 / 6))
    assert all(r.sum_abs >= 0 for r in rows)
    empty = ch.ap_mobius_sum(ch.APMobiusSumSpec(50, 50.2, 0.1, 1, 1, 1))
    assert empty == 0
