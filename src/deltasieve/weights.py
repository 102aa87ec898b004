"""Schwartz-class weights used by the smoothed counts, Poisson checks and
oscillatory integrals.

The default weight is the self-dual Gaussian exp(-pi z^2), whose Fourier
transform (with the e(x) = exp(2 pi i x) convention) is itself and has
value 1 at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SchwartzWeight:
    """A rapidly decaying weight with its value and Fourier transform.

    ``decay_radius(eps)`` returns R with |value(z)| <= eps for |z| >= R
    (and the same for the Fourier side); used to truncate lattice sums.
    """

    name: str
    value: Callable[[np.ndarray | float], np.ndarray | float]
    fourier: Callable[[np.ndarray | float], np.ndarray | float]
    decay_radius: Callable[[float], float]


def _gauss(z):
    return np.exp(-np.pi * np.asarray(z, dtype=float) ** 2)


def gaussian_weight() -> SchwartzWeight:
    """The self-dual Gaussian exp(-pi z^2)."""
    return SchwartzWeight(
        name="gaussian",
        value=_gauss,
        fourier=_gauss,
        decay_radius=lambda eps: math.sqrt(max(math.log(1.0 / eps), 1.0) / math.pi),
    )
