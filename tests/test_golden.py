"""Goldens at seed 0: every check of every suite, and the `verify` payloads.

`golden/checks_seed0.json` holds, for each check, its name, `ok`,
`repr(deviation)` and detail, together with the Python, numpy and mpmath
versions that wrote it.  `golden/verify_seed0.{json,text,csv}` and the
four `golden/verify_seed0.csv.<suite>.<scan>.csv` side CSVs hold the bytes
of `verify --suite all --seed 0` in each format, as `cli.render_verify`
writes them.  The tests read the session's suite reports from
`conftest.py`, so no suite runs twice.  Everything is compared exactly,
except the `oscint` deviations: a quadrature change may move them within
each check's bound, which `suite_oscint` tests when it sets the check's
`ok`, so for those the golden `ok` (and name and detail) must hold, and
the payloads are rendered with every `oscint` deviation set to 0.0.

Regenerate the files (runs every suite once, about 20 s) with

    PYTHONPATH=src python tests/test_golden.py

and list the changed lines in CHANGES.md.
"""

import dataclasses
import json
import platform
from pathlib import Path

import mpmath
import numpy as np
import pytest

from deltasieve import cli, suites

GOLDEN = Path(__file__).resolve().parent / "golden" / "checks_seed0.json"
SEED = 0
FORMATS = ("json", "text", "csv")


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


def _payloads(reports: list[suites.SuiteReport]) -> dict[str, str]:
    """File name -> text of every `verify --suite all` golden, rendered with
    each `oscint` deviation set to 0.0."""
    reports = [
        dataclasses.replace(r, checks=[dataclasses.replace(c, deviation=0.0) for c in r.checks])
        if r.suite == "oscint"
        else r
        for r in reports
    ]
    files = {}
    for fmt in FORMATS:
        text, side = cli.render_verify("all", SEED, reports, fmt)
        name = f"verify_seed{SEED}.{fmt}"
        files[name] = text
        files.update({f"{name}.{suffix}": csv_text for suffix, csv_text in side.items()})
    return files


def _check_versions():
    golden = json.loads(GOLDEN.read_text())
    assert golden["versions"] == _versions(), (
        f"golden written under {golden['versions']}, running under {_versions()}; "
        "regenerate it (see this module's docstring) and list the changes"
    )
    return golden


def test_checks_match_golden(suite_run):
    golden = _check_versions()
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


@pytest.fixture(scope="module")
def rendered(suite_run) -> dict[str, str]:
    return _payloads([suite_run(name).report for name in suites.SUITES])


def test_verify_payload_files(rendered):
    _check_versions()
    assert sorted(rendered) == sorted(p.name for p in GOLDEN.parent.glob("verify_seed*"))


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_payload_matches_golden(rendered, fmt):
    for name, text in rendered.items():
        if name.startswith(f"verify_seed{SEED}.{fmt}"):
            assert text == (GOLDEN.parent / name).read_text(), name


if __name__ == "__main__":
    reports = suites.run_suite("all", SEED)
    payload = {
        "versions": _versions(),
        "seed": SEED,
        "suites": {r.suite: _rows(r) for r in reports},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    for name, text in _payloads(reports).items():
        (GOLDEN.parent / name).write_text(text)
    print(f"wrote {GOLDEN} and the verify payloads beside it")
