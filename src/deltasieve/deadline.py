"""The runtime guard shared by the long commands (`verify`, `count`).

DELTASIEVE_MAX_SECONDS, when set, is the budget in seconds of one guarded
computation: a verification suite, or one `count` invocation with all its
X values.  The guard is checked at coarse points (once per check group,
prime block or 256 stripes), so a run stops shortly after the budget.
"""

from __future__ import annotations

import os
import time


class TimeBudgetExceeded(RuntimeError):
    pass


class Deadline:
    """Global runtime guard driven by DELTASIEVE_MAX_SECONDS.

    The clock is time.monotonic, which pool workers share with the process
    that started them, so a Deadline can be handed to a worker."""

    def __init__(self):
        budget = os.environ.get("DELTASIEVE_MAX_SECONDS")
        self.t0 = time.monotonic()
        self.budget = float(budget) if budget else None

    def check(self):
        if self.budget is not None and time.monotonic() - self.t0 > self.budget:
            raise TimeBudgetExceeded(
                f"DELTASIEVE_MAX_SECONDS={self.budget} exceeded"
            )
