import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasieve import arith, cli
from deltasieve import sieve as sv
from deltasieve.deadline import Deadline, TimeBudgetExceeded

# X = 8 (MAX_EXACT_X) is the largest box: primes up to its sqrt(Delta_max)
AMAX_8 = 8**4
PMAX_8 = math.isqrt(4 * 8**12 + 27 * 8**12)
PRIMES_8 = arith.primes_up_to(PMAX_8)[2:]  # p >= 5
kernel_settings = settings(derandomize=True, max_examples=200, deadline=None)
prime = st.one_of(st.sampled_from(PRIMES_8[:100]), st.sampled_from(PRIMES_8))


def test_delta_value():
    assert sv.delta_value(1, 1) == 31
    assert sv.delta_value(-3, 2) == 0
    assert sv.delta_value(0, 1) == 27
    with pytest.raises(ValueError):
        sv.delta_value(2**21, 0)


def test_config_guards():
    with pytest.raises(ValueError):
        sv.CountConfig(X=9.0)
    with pytest.raises(ValueError):
        sv.CountConfig(X=5.0, mode="smoothed")
    with pytest.raises(ValueError):
        sv.CountConfig(X=1.0, mode="weird")
    for bad in (
        dict(X=float("nan")),
        dict(X=float("inf")),
        dict(X=0.0),
        dict(X=0.5),
        dict(X=0.5, mode="smoothed"),
        dict(X=1.0, threads=0),
        dict(X=1.0, threads=-3),
    ):
        with pytest.raises(ValueError):
            sv.CountConfig(**bad)


def test_int64_headroom_guard():
    sv._check_int64_headroom(AMAX_8, PMAX_8)
    with pytest.raises(ValueError):
        sv._check_int64_headroom(0, math.isqrt(2**63 // 27) + 1)
    # the cofactor scan's keys reach 2 * 7560 (pmax + 1)^2, past 27 pmax^2
    pmax = math.isqrt(2**63 // 15120)
    sv._check_int64_headroom(0, pmax - 1)
    with pytest.raises(ValueError):
        sv._check_int64_headroom(0, pmax)


def test_pool_is_bounded(monkeypatch):
    """threads = 10**6 asks for min(cpu_count, Amax + 1) workers, one per
    shard; the shards partition the box, none is empty and each holds +-A
    together.  One worker means no pool."""
    sizes, shards = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts, *rest):
            shards.extend(parts)
            return map(fn, parts, *rest)

    monkeypatch.setattr(sv, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 4)
    # X = 3: 4 CPUs for 82 values of |A|; X = 1: |A| <= 1, 2 shards
    for X, Amax, workers in ((3, 81, 4), (1, 1, 2)):
        want = sv.exact_count(sv.CountConfig(X=X))
        sizes.clear()
        shards.clear()
        got = sv.exact_count(sv.CountConfig(X=X, threads=10**6))
        assert sizes == [workers] and len(shards) == workers
        assert sorted(np.concatenate(shards).tolist()) == list(range(-Amax, Amax + 1))
        assert all(s.size and sorted(s.tolist()) == sorted((-s).tolist()) for s in shards)
        assert (got.count, got.stripe_digest) == (want.count, want.stripe_digest)
    sizes.clear()
    assert sv.exact_count(sv.CountConfig(X=3, threads=1)).count == 66316
    assert sizes == []


def test_pool_matches_one_process(monkeypatch):
    """Two worker processes, each with its shard of the stripes, give the
    one-process count, stripe digest and smoothed sum."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    cfgs = [sv.CountConfig(X=3), sv.CountConfig(X=4), sv.CountConfig(X=2, mode="smoothed")]
    want = [sv._run_count(cfg, Deadline()) for cfg in cfgs]
    monkeypatch.setattr(sv, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 2)
    for cfg, one in zip(cfgs, want):
        got = sv._run_count(dataclasses.replace(cfg, threads=2), Deadline())
        assert (got.count, got.stripe_digest) == (one.count, one.stripe_digest)
        assert got.stripe_summaries == one.stripe_summaries
        if cfg.mode == "smoothed":
            assert got.weighted.hex() == one.weighted.hex()
    assert sizes == [2, 2, 2]


def test_deadline_stops_count(monkeypatch, capsys):
    """An expired budget stops a count, exact and smoothed, in one process
    and in a pool of two workers (each raises it at its first check), and
    a list of counts (`count --X 1,2`, one budget for the list): exit 1,
    no payload."""
    monkeypatch.setenv("DELTASIEVE_MAX_SECONDS", "0.0")
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 2)
    for threads in (1, 2):
        with pytest.raises(TimeBudgetExceeded):
            sv.exact_count(sv.CountConfig(X=3, threads=threads))
        with pytest.raises(TimeBudgetExceeded):
            sv.smoothed_count(sv.CountConfig(X=2, mode="smoothed", threads=threads))
    assert cli.main(["count", "--X", "1,2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "aborted: DELTASIEVE_MAX_SECONDS" in err


def test_exact_count_x1():
    res = sv.exact_count(sv.CountConfig(X=1))
    assert res.count == 4
    assert len(res.stripe_summaries) == 3
    # the survivors are (+-1, +-1)
    by_A = {row[0]: row for row in res.stripe_summaries}
    assert by_A[0][1] == 0
    assert by_A[1][1] == 2 and by_A[-1][1] == 2



def test_three_divides_A_stripes_die():
    res = sv.exact_count(sv.CountConfig(X=2))
    for row in res.stripe_summaries:
        if row[0] % 3 == 0:
            assert row[1] == 0  # 27 | Delta whenever 3 | A


def test_mark_fills_three_divides_A_rows():
    # stage 2 sieves no 3 | A stripe (9 | Delta, and every Delta = 0 pair
    # lies there): each is summarized as (A, 0, 0, 0), in both modes
    for cfg in (sv.CountConfig(X=3), sv.CountConfig(X=1.5, mode="smoothed")):
        rows = sv._run_count(cfg, Deadline()).stripe_summaries
        dead = [row for row in rows if row[0] % 3 == 0]
        assert len(dead) == 2 * (sv._box_bounds(cfg)[0] // 3) + 1
        assert all(row[1:] == (0, 0, 0) + (0.0,) * (cfg.mode == "smoothed") for row in dead)


def _mark_rows(As, Bmax: int) -> np.ndarray:
    """The marked stripes As (distinct A) as one (len(As), W) matrix over
    the odd B, through both stages; the rows of 3 | A are all marked.  The
    tables cover only these |A|."""
    As = np.asarray(As, dtype=np.int64)
    found = sv._find_roots(As, Bmax, Deadline())
    out = np.ones((As.size, sv._odd_span(Bmax)[1]), dtype=bool)
    for i, buf in sv._marked_rows(As, Bmax, found, Deadline()):
        out[i] = buf
    return out


def test_mark_rows_match_value_bitmap():
    """Every cell of stage 2 at X = 3: for each stripe with 3 not dividing
    A and each odd B, the cell is marked iff |Delta| is not square-free,
    decided by a square-free bitmap of the value range.  This covers the
    p | A progressions, the roots mod p^2 < L, the lifted hits and the
    cofactor scan at once (the oracles compare totals only)."""
    Amax, Bmax = sv._box_bounds(sv.CountConfig(X=3))
    lo, W = sv._odd_span(Bmax)
    As = np.arange(-Amax, Amax + 1, dtype=np.int64)
    Bs = np.arange(lo, Bmax + 1, 2, dtype=np.int64)
    assert Bs.size == W and Bs[-1] in (Bmax, Bmax - 1)
    d = np.abs(4 * As[As % 3 != 0, None] ** 3 + 27 * Bs * Bs)
    sf = np.ones(int(d.max()) + 1, dtype=bool)
    for p in arith.primes_up_to(math.isqrt(sf.size - 1)):
        sf[p * p :: p * p] = False
    marked = _mark_rows(As, Bmax)
    assert marked[As % 3 == 0].all()
    want = ~sf[d]
    assert 0 < want.sum() < want.size
    assert (marked[As % 3 != 0] == want).all()


def test_delta_zero_parametrization_excluded():
    # Delta = 0 exactly at (A, B) = (-3t^2, +-2t^3); all lie in dead stripes
    res = sv.exact_count(sv.CountConfig(X=3))
    by_A = {row[0]: row[1] for row in res.stripe_summaries}
    t = 0
    while 3 * t * t <= 3**4:
        assert by_A[-3 * t * t] == 0
        t += 1


def _naive_count_concat(X: float, chunk: int = 1 << 24) -> int:
    """The int64-concat route of `naive_squarefree_count`: every |Delta| in
    one int64 array, the full prime list marked on each bitmap chunk, and
    each chunk's values found by two full-length masks."""
    Amax, Bmax = int(math.floor(X**4)), int(math.floor(X**6))
    dmax = 4 * Amax**3 + 27 * Bmax**2
    ps = arith.primes_up_to(math.isqrt(dmax))
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)
    vals = []
    for A in range(-Amax, Amax + 1):
        d = 4 * A**3 + 27 * B * B
        vals.append(np.abs(d[d != 0]))
    allv = np.concatenate(vals)
    total = 0
    for lo in range(0, dmax + 1, chunk):
        hi = min(lo + chunk, dmax + 1)
        sf = np.ones(hi - lo, dtype=bool)
        for p in ps:
            if p * p > hi:
                break
            sf[(-lo) % (p * p) :: p * p] = False
        sel = (allv >= lo) & (allv < hi)
        total += int(sf[allv[sel] - lo].sum())
    return total


@pytest.mark.parametrize("X", [1, 1.5, 2, 2.5, 3])
def test_naive_squarefree_count_matches_concat_route(X, monkeypatch):
    want = _naive_count_concat(X)
    assert sv.naive_squarefree_count(X) == want
    # many small bitmaps; at X = 2 and 2.5 some chunks hold no value
    monkeypatch.setattr(sv, "_CHUNK", 1000 if X < 3 else 1 << 16)
    assert sv.naive_squarefree_count(X) == want


@pytest.mark.parametrize("chunk", [913, 1 << 12])
def test_squarefree_chunks_match_one_bitmap(chunk, monkeypatch):
    """Each chunk's bitmap, by strided slices for p^2 <= _CHUNK and by the
    sorted multiples for the larger p^2, equals one square-free bitmap of
    [1, top] on its range, and the chunks tile [0, top].  At 913 some
    chunks start, and some end, on a value that only a p^2 > _CHUNK
    divides (2 * 37^2 = 2,738 ends the third)."""
    monkeypatch.setattr(sv, "_CHUNK", chunk)
    top = 200_000
    p2 = np.array(arith.primes_up_to(math.isqrt(top)), dtype=np.int64) ** 2
    want = np.ones(top + 1, dtype=bool)
    for m in p2.tolist():
        want[::m] = False
    vals = np.arange(1, top + 1, dtype=np.uint32)
    end, starts, ends = 0, [], []
    for lo, sf, v in sv._squarefree_chunks(vals, top, p2):
        assert lo == end and 0 < sf.size <= chunk
        assert v.tolist() == list(range(lo == 0, sf.size))
        assert np.array_equal(sf[v], want[lo + v])
        end = lo + sf.size
        starts.append(lo)
        ends.append(end - 1)
    assert end == top + 1

    def big_only(e):
        return not want[e] and all(e % m for m in p2[p2 <= chunk].tolist())

    if chunk == 913:
        assert any(map(big_only, starts[1:])) and any(map(big_only, ends))


def test_naive_squarefree_count_cap(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the cap was checked")

    monkeypatch.setattr(sv.np, "empty", no_alloc)
    monkeypatch.setattr(sv.np, "arange", no_alloc)
    for X in (4.01, 5, 8):
        with pytest.raises(ValueError):
            sv.naive_squarefree_count(X)


def test_naive_weighted_sum_and_S_term_caps(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the cap was checked")

    for name in ("empty", "ones", "zeros", "arange"):
        monkeypatch.setattr(sv.np, name, no_alloc)
    for X in (3.01, 3.5, 4):
        with pytest.raises(ValueError):
            sv.naive_weighted_sum(X)
        with pytest.raises(ValueError):
            sv.S_term(X, 2)
        with pytest.raises(ValueError):
            sv.mobius_sieve_identity(X)
        with pytest.raises(ValueError):
            sv.tail_S2(X, 2)


def test_stripe_B_sum_invariant(monkeypatch):
    """B -> -B fixes Delta, so every stripe's marks are their own mirror; a
    count whose stage 2 breaks the symmetry is refused, naming the stripe,
    whether the flipped cell is in the half B > 0 that the reduction reads
    or in the half B < 0 that it does not."""
    marked_rows = sv._marked_rows

    for shift in (0, -1):

        def flip_one(As, Bmax, *rest):
            for i, buf in marked_rows(As, Bmax, *rest):
                if As[i] == 1:
                    buf[(Bmax + 1) // 2 + shift] ^= True  # (A, B) = (1, +-1)
                yield i, buf

        monkeypatch.setattr(sv, "_marked_rows", flip_one)
        with pytest.raises(RuntimeError, match="stripe A = 1: marks differ at B = 1 and -1"):
            sv.exact_count(sv.CountConfig(X=2))
        with pytest.raises(RuntimeError, match="stripe A = 1:"):
            sv.smoothed_count(sv.CountConfig(X=1, mode="smoothed"))


def test_S_term():
    assert sv.S_term(1, 2) == 2
    assert sv.S_term(1, 5) == 0
    assert sv.S_term(1, 1) == 8
    # X = 2 box minus the five Delta = 0 pairs (t = 0, 1, 2 below)
    assert sv.S_term(2, 1) == (2 * 16 + 1) * (2 * 64 + 1) - 5


def _delta_values(X):
    """The nonzero Delta over the box, flattened: the grid route to S(X; k^2)."""
    Amax, Bmax = int(X**4), int(X**6)
    A = np.arange(-Amax, Amax + 1, dtype=np.int64)[:, None]
    B = np.arange(-Bmax, Bmax + 1, dtype=np.int64)[None, :]
    d = (4 * A**3 + 27 * B**2).ravel()
    return d[d != 0]


def _S_grid(d, k):
    return int((d % (k * k) == 0).sum())


@pytest.mark.parametrize("X", [1, 2, 3])
def test_S_term_histogram_matches_grid(X, monkeypatch):
    """Each chunk of the histogram holds at most _CHUNK counts of the
    smallest type and equals the grid's counts on its range; the chunks tile
    [0, max |Delta|] in order, so a chunk that repeats or skips its
    boundary value fails.  S_term sums its strided slices chunk by chunk,
    with the default chunks (4 at X = 3) and with many small ones: every k
    at X <= 2, and at X = 3 200 seeded k at the default chunks and the k
    around the chunk widths at both."""
    d = _delta_values(X)
    counts = np.bincount(np.abs(d))
    kmax = math.isqrt(counts.size - 1)
    # k^2 on both sides of the chunk widths 1000 and 2^16, and k^2 = 2^22:
    # chunks that hold one multiple of k^2 or none, or start on one
    edge = [k for k in (1, 2, 3, 31, 32, 256, 257, 2048, 2049) if k <= kmax] + [kmax, kmax + 1]
    seeded = np.random.default_rng(7).integers(1, kmax + 1, 200).tolist()
    if X < 3:
        ks = {sv._CHUNK: range(1, kmax + 2), 1000: range(1, kmax + 2)}
    else:
        ks = {sv._CHUNK: edge + seeded, 1 << 16: edge}
    for chunk, chunk_ks in ks.items():
        monkeypatch.setattr(sv, "_CHUNK", chunk)
        end = 0
        for lo, h in sv._delta_histogram(X):
            assert lo == end and 0 < h.size <= chunk
            if X == 3:
                assert h.dtype == np.uint8  # not bincount's int64
            assert np.array_equal(h, counts[lo : lo + h.size])
            end = lo + h.size
        assert end == counts.size
        for k in chunk_ks:
            assert sv.S_term(X, k) == _S_grid(d, k), (chunk, k)


@pytest.mark.parametrize("xi", [2, 10, 100])
def test_tail_S2_matches_grid(xi, monkeypatch):
    d = _delta_values(2)
    kmax = math.isqrt(int(np.abs(d).max()))
    mu = arith.mobius_table(kmax)
    want = sum(int(mu[k]) * _S_grid(d, k) for k in range(xi + 1, kmax + 1))
    # one chunk of the histogram, 2 chunks and 127
    for chunk in (sv._CHUNK, 1 << 16, 1000):
        monkeypatch.setattr(sv, "_CHUNK", chunk)
        assert sv.tail_S2(2, xi)[0] == want, chunk


def test_mobius_sieve_identity_X3():
    assert sv.mobius_sieve_identity(3) == (66316, 66316, True)


def test_delta_zero_pairs_in_box():
    # X = 2: (0,0), (-3, +-2), (-12, +-16) are the only Delta = 0 pairs
    cnt = 0
    for A in range(-16, 17):
        for B in range(-64, 65):
            if 4 * A**3 + 27 * B**2 == 0:
                cnt += 1
    assert cnt == 5


def test_tail_S2():
    assert sv.tail_S2(1, 3)[0] == 0
    assert sv.tail_S2(2, 10**4)[0] == 0
    val, shape = sv.tail_S2(2, 2)
    assert abs(val) <= shape
    # every xi < 1 keeps all of k >= 1: the exact count at X = 2
    assert sv.tail_S2(2, 0.5)[0] == 1188


@pytest.mark.parametrize("xi", [0, -1, -5, math.nan])
def test_tail_S2_rejects_xi(xi, monkeypatch):
    # refused before the histogram, not read off mu at negative indices
    monkeypatch.setattr(sv, "_delta_histogram", None)
    with pytest.raises(ValueError, match="xi must be finite and positive"):
        sv.tail_S2(2, xi)


def test_smoothed_vs_direct():
    got = sv.smoothed_count(sv.CountConfig(X=1.5, mode="smoothed")).weighted
    want = sv.naive_weighted_sum(1.5)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_compare_main_term_row():
    (r,) = sv.compare_main_term([sv.exact_count(sv.CountConfig(X=1))])
    assert (r.X, r.mode, r.count_or_sum) == (1, "exact", 4)
    assert r.main_lo <= r.main_hi
    mid = (r.main_lo + r.main_hi) / 2
    assert r.residual == pytest.approx(4 - mid, abs=1e-6)


def test_stripe_digest_varies():
    a = sv.exact_count(sv.CountConfig(X=1))
    b = sv.exact_count(sv.CountConfig(X=2))
    assert a.stripe_digest != b.stripe_digest


# ---------------------------------------------------------------------------
# root kernel against Python-int references, primes up to X = 8's bound


def roots_mod(t: int, p: int, k: int) -> set[int]:
    return set(arith.sqrt_mod_prime_power(t, p, k))


def stripe_radicand(A: int, p: int, k: int) -> int:
    """-4 A^3 / 27 mod p^k: the B^2 of 27 B^2 + 4 A^3 = 0."""
    pk = p**k
    return -4 * A**3 * pow(27, -1, pk) % pk


def test_tonelli_steps_bounded():
    # 2 has order 12 mod 13 = 3 * 2^2, so it is outside the 2-power subgroup
    with pytest.raises(RuntimeError):
        sv._tonelli_steps(np.array([1]), np.array([2]), sv._Primes.of([13]))


def test_least_nonresidue():
    ps = np.array(PRIMES_8[:2000] + PRIMES_8[-2000:], dtype=np.int64)
    z = sv._least_nonresidue(ps)
    for p, zz in zip(ps.tolist(), z.tolist()):
        assert [c for c in range(2, zz + 1) if pow(c, (p - 1) // 2, p) == p - 1] == [zz], p
    pr = sv._Primes.of(ps)
    assert (pr.zinv * z % ps == 1).all()
    assert (pr.inv54 * 54 % ps == 1).all()


@kernel_settings
@given(
    st.lists(prime, min_size=1, max_size=8),
    st.lists(st.integers(1, AMAX_8), min_size=1, max_size=16),
)
def test_twisted_root_table(ps, ns):
    """rho(n)^2 = n z^f with f the Legendre bit of n, rho(n) = 0 iff p | n,
    and inv = n^-1, over the plan's closure of ns; and the cusp root is a
    root mod p of 27 B^2 + 4 A^3 exactly when -3A is a nonzero square."""
    pr = sv._Primes.of(ps)
    plan = sv._Plan.of(ns, range(len(ns)))
    assert set(ns) <= set(plan.n.tolist())
    tab = sv._root_table(pr, plan)
    cusp = [sv._cusp_roots(tab, pr, s) for s in (0, 1)]
    for i, p in enumerate(ps):
        z = int(pr.z[i])
        assert pow(z, (p - 1) // 2, p) == p - 1
        for c, n in enumerate(plan.n.tolist()):
            rho, f = int(tab.rho[i, c]), bool(tab.f[i, c])
            if n % p == 0:
                assert rho == 0
                continue
            assert f == (pow(n, (p - 1) // 2, p) == p - 1)
            assert rho * rho % p == n * z**f % p
            assert int(tab.inv[i, c]) * n % p == 1
            for s, (B0, ok) in enumerate(cusp):
                A = n * (1 - 2 * s)
                assert bool(ok[i, c]) == (pow(-3 * A, (p - 1) // 2, p) == 1), (p, A)
                if ok[i, c]:
                    assert (27 * int(B0[i, c]) ** 2 + 4 * A**3) % p == 0


@kernel_settings
@given(st.lists(st.tuples(prime, st.integers(0, PMAX_8), st.integers(0, 2 * PMAX_8)), max_size=16))
def test_powmod_matches_pow(rows):
    p = np.array([r[0] for r in rows], dtype=np.int64)
    base = np.array([[b % m, (7 * b + 1) % m] for m, b, _ in rows], dtype=np.int64).reshape(-1, 2)
    exp = np.array([r[2] for r in rows], dtype=np.int64)
    want = [[pow(int(b), int(e), int(m)) for b in row] for row, e, m in zip(base, exp, p)]
    assert sv._powmod(base, exp, p).tolist() == want
    assert sv._powmod(base[:, 0], exp, p).tolist() == [w[0] for w in want]


@kernel_settings
@given(
    st.lists(
        st.tuples(prime, st.lists(st.integers(0, PMAX_8), min_size=4, max_size=4)),
        min_size=1,
        max_size=8,
    )
)
def test_sqrt_mod_p_matches_arith(rows):
    """`_twisted_roots` on arbitrary residues, 0 and non-residues included:
    f is set exactly where the scalar path finds no root, rho^2 = x z^f,
    inv x = 1, and all three are 0 at x = 0."""
    ps = [p for p, _ in rows]
    x = np.array([[v % p for v in vs] for p, vs in rows], dtype=np.int64)
    x[0, 0] = 0
    pr = sv._Primes.of(ps)
    rho, f, inv = sv._twisted_roots(x, pr)
    for i, p in enumerate(ps):
        z = int(pr.z[i])
        for j, xx in enumerate(x[i].tolist()):
            r, ff, iv = int(rho[i, j]), bool(f[i, j]), int(inv[i, j])
            if xx == 0:
                assert (r, ff, iv) == (0, False, 0)
                continue
            assert ff == (not roots_mod(xx, p, 1)), (p, xx)
            assert r * r % p == xx * z**ff % p, (p, xx)
            assert iv * xx % p == 1, (p, xx)


@kernel_settings
@given(st.lists(st.tuples(prime, st.integers(-AMAX_8, AMAX_8)), max_size=32))
def test_lift_and_stripe_roots_match_arith(pairs):
    """Stage 1 (`_RootStage.run`) over the stripes with 3 not dividing A
    and all the drawn primes: with Bmax >= max p^2 it returns no hits, each
    root R mod p^2 as a progression mod p^2 and each p | A as one mod p
    with R = 0 (R = lo + 2 start mod m).  Then the Hensel step alone, on
    every drawn pair."""
    pairs = [(p, A) for p, A in pairs if A % p]
    want = [roots_mod(stripe_radicand(A, p, 2), p, 2) for p, A in pairs]
    live = [(p, A, roots) for (p, A), roots in zip(pairs, want) if A % 3]
    if live:
        As = np.unique([A for _, A, _ in live])
        ps = np.unique([p for p, _, _ in live])
        stage = sv._RootStage(As, int(ps[-1]) ** 2)
        found = stage.run(ps)
        assert found.hits.size == 0
        got = {}
        for row, start, m in zip(found.rows.tolist(), found.starts.tolist(), found.mods.tolist()):
            got.setdefault((int(As[row]), m), set()).add((stage.lo + 2 * start) % m)
        assert [got.get((A, p * p), set()) for p, A, _ in live] == [r for _, _, r in live]
        divides = {(A, p) for A in As.tolist() for p in ps.tolist() if A % p == 0}
        assert {key for key in got if key[1] in ps} == divides
        assert all(got[key] == {0} for key in divides)
    # the Hensel step alone, from each scalar root mod p
    lifts = [
        (j, p, A, r0)
        for j, (p, A) in enumerate(pairs)
        for r0 in roots_mod(stripe_radicand(A, p, 1), p, 1)
    ]
    if not lifts:
        return
    j, p, A, r = (np.array(col, dtype=np.int64) for col in zip(*lifts))
    xinv = np.array([pow(r0 * r0, -1, p0) for _, p0, _, r0 in lifts], dtype=np.int64)
    pr = sv._Primes.of(p)
    R = sv._lift_root(r, xinv, A * A * A, pr.p, pr.inv54)
    for jj, root, r0, p0 in zip(j.tolist(), R.tolist(), r.tolist(), p.tolist()):
        assert root % p0 == r0 and root in want[jj]


@pytest.mark.parametrize("X", [5, 6, 7, 8])
def test_mark_sampled_pairs_match_squarefree(X):
    """Completeness past the oracle's X = 4, in both directions: on seeded
    rows A, a marked cell has a square factor and a survivor is square-free,
    decided by factorizing Delta.  Per row, 25 odd B are uniform and up to
    25 are odd roots mod p^2 for primes
    sqrt(2 Bmax + 1) <= p <= 20 sqrt(2 Bmax + 1):
    the kernel marks one cell per such root, and uniform B almost never
    meet one.  Both stages run on the sampled rows alone, so their tables
    cover only those |A| and their factors."""
    cfg = sv.CountConfig(X=X)
    Amax, Bmax = sv._box_bounds(cfg)
    L = 2 * Bmax + 1
    lo, W = sv._odd_span(Bmax)
    big = [p for p in arith.primes_up_to(20 * math.isqrt(L)) if p * p >= L]
    rng = np.random.default_rng(X)
    As = rng.choice([A for A in range(-Amax, Amax + 1) if A % 3], 4, replace=False)
    marked = _mark_rows(As, Bmax)
    seen = set()
    for row, A in enumerate(As.tolist()):
        hits = [
            (root + Bmax) % (p * p) - Bmax
            for p in big
            if A % p
            for root in roots_mod(stripe_radicand(A, p, 2), p, 2)
        ]
        hits = [B for B in hits if B <= Bmax and B % 2]
        assert hits
        Bs = (lo + 2 * rng.integers(0, W, 25)).tolist()
        Bs += rng.permutation(hits)[:25].tolist()
        for B in Bs:
            squarefree = arith.is_squarefree(sv.delta_value(A, B))
            assert marked[row, (B - lo) // 2] != squarefree, (A, B)
            seen.add(squarefree)
    assert seen == {True, False}


def test_large_prime_hits_match_delta_grid(monkeypatch):
    """The cofactor scan of the primes p >= P = L // _FLIP
    (`_RootStage.cofactor`) against the Delta grid, on the cells of stage 2
    (B odd, 3 not dividing A), as flat indices stripe * W + (B - lo) / 2.
    The boxes have a short B range, where p^2 | Delta for some p >= P
    often.  Each holds cofactors k = Delta / p^2 of both signs, primes
    P <= p < L that divide A (found at p | B, which the root tables mark
    for p < P), and hits at both ends of the windows, |B| = 1 and
    |B| = Bmax.  In the first two boxes P <= 5, so the scan takes every
    prime; in the third P > 7.  The first and third hold hits in all 12
    windows of a stripe, one per square B^2 mod 35 (0 included: 35 | B),
    and hits at 5 | A and 7 | A.  A small _TABLE splits each scan into
    many chunks: 7 on the first box, 64 on the other two, where 7 took
    most of the test's time."""
    boxes = ((100, 61, 1338, 7), (200, 31, 1274, 64), (100, 121, 1014, 64))
    default = sv._TABLE
    for Amax, Bmax, nhits, small in boxes:
        L = 2 * Bmax + 1
        P = L // sv._FLIP
        lo, W = sv._odd_span(Bmax)
        As = np.arange(-Amax, Amax + 1, dtype=np.int64)
        B = np.arange(lo, Bmax + 1, 2, dtype=np.int64)
        d = 4 * As[:, None] ** 3 + 27 * B * B
        live = (As[:, None] % 3 != 0) & (d != 0)
        hit = np.zeros(d.shape, dtype=bool)
        ks, divides = set(), False
        for p in arith.primes_up_to(math.isqrt(int(np.abs(d).max()))):
            if p >= max(P, 5):
                h = live & (d % (p * p) == 0)
                hit |= h
                ks |= set((d[h] // (p * p)).tolist())
                divides |= p < L and bool((h & (As[:, None] % p == 0)).any())
        assert hit.sum() == nhits and min(ks) < 0 < max(ks) and divides
        assert (P > 7) == (Bmax == 121)
        Ah, Bh = As[np.nonzero(hit)[0]], B[np.nonzero(hit)[1]]
        if Bmax >= 35:
            assert len(set((Bh * Bh % 35).tolist())) == 12
            assert all((Ah % q == 0).any() and (Bh % q == 0).any() for q in (5, 7))
        assert hit[:, [0, -1]].any() and hit[:, [W // 2 - 1, W // 2]].any()
        assert B[[0, -1, W // 2 - 1, W // 2]].tolist() == [-Bmax, Bmax, -1, 1]
        for table in (default, small):
            monkeypatch.setattr(sv, "_TABLE", table)
            found = sv._RootStage(As, Bmax).cofactor(Deadline())
            assert found.rows.size == 0
            # a Delta with two such p^2 is hit twice; marking is idempotent
            assert np.unique(found.hits).tolist() == np.flatnonzero(hit).tolist(), (Amax, Bmax, table)
