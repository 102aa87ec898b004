"""Bit-identity sweep of I and I1 against the connection-formula route of Ai.

Below -edge, `oscint._ai` sums Ai and Ai' as the real form of mpmath's
asymptotic 2F0 at |x| e^(i pi/3).  This script evaluates the same doubles
once more with that branch replaced by the connection formula
Ai(x) = 2 Re[w Ai(-x w)], Ai'(x) = -2 Re[w^2 Ai'(-x w)], w = e^(i pi/3)
(DLMF 9.2.11), through mpmath's complex ``airyai``, and counts the doubles
that differ between the two routes over:

- I at the second Poisson u-sum, alpha = u in [-250, 250] at beta = 9;
- I and I1 at 4,000 seeded (alpha, beta, s) points, beta log-uniform on
  [1e-9, 100], x from 19 down to -980 and s uniform on [0.5, 16];
- every row of `station_envelope_scan()` and `omega_scan()`.

It prints the number of values compared and the number that differ, and
exits 1 if any differ.  Tier-1 does not collect it (the leading
underscore); run it from the repository root after any change to the
quadrature:

    PYTHONPATH=src python tests/_airy_sweep.py
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from unittest import mock

from mpmath import mp

from deltasieve import oscint as oi

POINTS, SEED = 4000, 0


def edge() -> float:
    """|x| where (4/3) |x|^(3/2) = prec ln 2 + 23 at the current precision."""
    return (0.75 * (mp.prec * math.log(2) + 23)) ** (2 / 3)


def connection_ai(x, n: int):
    """Ai(x) (n = 0) or Ai'(x) (n = 1) for real x < -edge by the connection
    formula, through mpmath's ``airyai`` at the complex point -x w."""
    w = mp.mpc(0.5, mp.sqrt(3) / 2)
    v = mp.airyai(-x * w, derivative=n)
    return 2 * (w * v).real if n == 0 else -2 * (w * w * v).real


_ai = oi._ai


def connection_route(x, n: int):
    """`oscint._ai` with its branch below -edge taken by `connection_ai`."""
    return connection_ai(x, n) if x < -edge() else _ai(x, n)


def seeded_points(count: int, seed: int) -> list[tuple[float, float, float]]:
    """(alpha, beta, s) with beta = 10^U(-9, 2) and alpha solved from
    x = 20 - 10^U(0, 3) through the closed form's x."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        beta = 10 ** rng.uniform(-9, 2)
        x = 20 - 10 ** rng.uniform(0, 3)
        c = (6 * math.pi * beta) ** (-1 / 3)
        alpha = (x / c - math.pi / (6 * beta)) / (2 * math.pi)
        pts.append((alpha, beta, rng.uniform(0.5, 16)))
    return pts


def _values(pts) -> list[tuple[str, complex]]:
    vals = []
    for u in range(-250, 251):
        vals.append((f"I({u}, 9)", oi.I_eval(oi.OscillatoryProblem(float(u), 9.0))))
    for alpha, beta, s in pts:
        p = oi.OscillatoryProblem(alpha, beta)
        vals.append((f"I({alpha!r}, {beta!r})", oi.I_eval(p)))
        vals.append((f"I1({alpha!r}, {beta!r}, {s!r})", oi.I1_eval(p, s)))
    for scan in (oi.station_envelope_scan, oi.omega_scan):
        for row in scan():
            fields = dataclasses.astuple(row)
            vals.append((f"{scan.__name__} {row.alpha!r} {row.beta!r}", fields))
    return vals


def bits(v) -> tuple:
    """v (a complex or a tuple of fields) with each float as its hex,
    which keeps the sign of a zero."""
    if isinstance(v, complex):
        v = (v.real, v.imag)
    return tuple(f.hex() if isinstance(f, float) else f for f in v)


def main() -> int:
    pts = seeded_points(POINTS, SEED)
    new = _values(pts)
    with mock.patch.object(oi, "_ai", connection_route):
        old = _values(pts)
    diff = [name for (name, a), (_, b) in zip(new, old) if bits(a) != bits(b)]
    print(f"{len(new)} values compared, {len(diff)} differ")
    for name in diff[:20]:
        print("differs:", name)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
