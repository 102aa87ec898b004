"""The runtime guard shared by the long commands (`verify`, `count`,
`constant`).

DELTASIEVE_MAX_SECONDS, when set, is the budget in seconds of one guarded
computation: a verification suite, one `count` invocation with all its
X values, or one Euler product.  The guard is checked after each check of
a suite, per prime block or per 256 stripes of a count, and per window of
the Euler product, so a run stops shortly after the budget.  A set value
must be a finite number >= 0 (the CLI exits 2 otherwise); an empty value
means unset.
"""

from __future__ import annotations

import math
import os
import time


class TimeBudgetExceeded(RuntimeError):
    pass


class Deadline:
    """Global runtime guard driven by DELTASIEVE_MAX_SECONDS.

    The clock is time.monotonic, which pool workers share with the process
    that started them, so a Deadline can be handed to a worker.  A set
    value that is not a finite number >= 0 raises ValueError."""

    def __init__(self):
        text = os.environ.get("DELTASIEVE_MAX_SECONDS")
        self.t0 = time.monotonic()
        self.budget = float(text) if text else None
        if self.budget is not None and not (math.isfinite(self.budget) and self.budget >= 0):
            raise ValueError(f"need a finite number >= 0, got {text!r}")

    def check(self):
        if self.budget is not None and time.monotonic() - self.t0 > self.budget:
            raise TimeBudgetExceeded(
                f"DELTASIEVE_MAX_SECONDS={self.budget} exceeded"
            )
