"""The Schwartz-class weight used by the smoothed counts, Poisson checks and
oscillatory integrals.

The weight is the self-dual Gaussian exp(-pi z^2), whose Fourier
transform (with the e(x) = exp(2 pi i x) convention) is itself and has
value 1 at 0, so `gauss` serves as both the weight and its transform.
"""

from __future__ import annotations

import math

import numpy as np


def gauss(z):
    """exp(-pi z^2), elementwise."""
    return np.exp(-np.pi * np.asarray(z, dtype=float) ** 2)


def decay_radius(eps: float) -> float:
    """R with gauss(z) <= eps for |z| >= R; used to truncate lattice sums."""
    return math.sqrt(max(math.log(1.0 / eps), 1.0) / math.pi)
