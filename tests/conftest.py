"""Session-wide suite reports.

Every verification suite in `deltasieve.suites` runs at most once per test
session, on first use, with seed 0.  The acceptance tests look their
criteria up in these reports and gate every check they contain.
"""

import time
from dataclasses import dataclass

import pytest

from deltasieve import suites


@dataclass(frozen=True)
class SuiteRun:
    report: suites.SuiteReport
    seconds: float

    def check(self, name: str) -> suites.CheckResult:
        return {c.name: c for c in self.report.checks}[name]


@pytest.fixture(scope="session")
def suite_run():
    """suite_run(name) -> the SuiteRun of suite `name`, run once and timed."""
    runs = {}

    def get(name: str) -> SuiteRun:
        if name not in runs:
            t0 = time.perf_counter()
            (report,) = suites.run_suite(name, 0)
            runs[name] = SuiteRun(report, time.perf_counter() - t0)
        return runs[name]

    return get
