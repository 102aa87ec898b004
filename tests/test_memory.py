"""Memory bounds of the value-space and pair-grid oracles.

Each call's peak is read with tracemalloc, which traces numpy's array
buffers.  The bounds sit between the chunked oracles' peaks and those of
one Delta_max-sized bitmap or histogram, or one q x q grid: a bitmap of
2^24 values alone is 16 MiB, and the q x q route of
`sigma_pair_bruteforce` peaked at 14 MiB at q = 961.
"""

import tracemalloc

import pytest

from deltasieve import density as dn
from deltasieve import sieve as sv

MiB = 1 << 20


def _peak(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "name, args, bound_mib, want",
    [
        # 4.6 MiB: the 4 MiB bitmap buffer and 70 k uint32 survivors
        ("naive_squarefree_count", (3,), 10, 66316),
        # 5.1 MiB: the 4 MiB uint8 histogram buffer and the distinct |Delta|
        ("_mobius_S_sum", (3, 1), 10, 66316),
    ],
)
def test_value_space_oracle_peak(name, args, bound_mib, want):
    call = getattr(sv, name)
    assert call(*args) == want
    assert _peak(call, *args) <= bound_mib * MiB


def test_sigma_pair_grid_peak():
    # 1.0 MiB: rows of at most 2^16 pairs, not one 961 x 961 int64 grid
    assert dn.sigma_pair_bruteforce(961) == 2 * 961 - 31
    assert _peak(dn.sigma_pair_bruteforce, 961) <= 4 * MiB
