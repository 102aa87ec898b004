"""Check-level goldens: every check of every suite at seed 0, pinned.

`golden/checks_seed0.json` holds, for each check, its name, `ok`,
`repr(deviation)` and detail, together with the Python, numpy and mpmath
versions that wrote it.  The test reads the session's suite reports from
`conftest.py`, so no suite runs twice.  Everything is compared exactly,
except the `oscint` deviations: a quadrature change may move them within
each check's bound, which `suite_oscint` tests when it sets the check's
`ok`, so for those the golden `ok` (and name and detail) must hold.

Regenerate the file (runs every suite once, about 40 s) with

    PYTHONPATH=src python tests/test_golden.py

and list the changed lines in CHANGES.md.
"""

import json
import platform
from pathlib import Path

import mpmath
import numpy as np

from deltasieve import suites

GOLDEN = Path(__file__).resolve().parent / "golden" / "checks_seed0.json"
SEED = 0


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
    }


def _rows(report: suites.SuiteReport) -> list[dict]:
    return [
        {"name": c.name, "ok": c.ok, "deviation": repr(c.deviation), "detail": c.detail}
        for c in report.checks
    ]


def test_checks_match_golden(suite_run):
    golden = json.loads(GOLDEN.read_text())
    assert golden["versions"] == _versions(), (
        f"golden written under {golden['versions']}, running under {_versions()}; "
        "regenerate it (see this module's docstring) and list the changes"
    )
    assert golden["seed"] == SEED
    assert list(golden["suites"]) == list(suites.SUITES)
    for name, want in golden["suites"].items():
        got = _rows(suite_run(name).report)
        if name == "oscint":
            # its deviations may move within each check's bound, which
            # the check's ok records
            got = [dict(r, deviation=None) for r in got]
            want = [dict(r, deviation=None) for r in want]
        assert got == want, name


if __name__ == "__main__":
    payload = {
        "versions": _versions(),
        "seed": SEED,
        "suites": {name: _rows(run(SEED)) for name, run in suites.SUITES.items()},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
