import json
import os
import subprocess
import sys

import pytest

from deltasieve import cli


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "deltasieve.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_usage_error_exit_2():
    r = run_cli(["verify"])  # missing --suite
    assert r.returncode == 2
    r = run_cli(["nonsense"])
    assert r.returncode == 2
    # a negative seed, also for a suite that draws no random numbers
    r = run_cli(["verify", "--suite", "density", "--seed", "-1"])
    assert r.returncode == 2
    assert r.stdout == ""


def test_verify_density_json():
    r = run_cli(["verify", "--suite", "density", "--format", "json"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["ok"] is True
    names = [c["name"] for c in payload["suites"][0]["checks"]]
    assert "sigma_small_enumeration" in names
    assert "one_third_factor_exact" in names
    # header goes to stderr, not stdout
    assert "deltasieve" in r.stderr
    assert "wall-clock" in r.stderr


def test_verify_json_types():
    """`ok` is a JSON bool and `n_pass` an int, also for checks whose
    verdict is a numpy bool."""
    r = run_cli(["verify", "--suite", "expsum", "--format", "json"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["ok"] is True
    (suite,) = payload["suites"]
    assert suite["ok"] is True
    assert type(suite["n_pass"]) is int and suite["n_pass"] == suite["n_checks"]
    assert all(type(c["ok"]) is bool for c in suite["checks"])


def test_verify_payload_deterministic():
    a = run_cli(["verify", "--suite", "poisson", "--seed", "42", "--format", "json"])
    b = run_cli(["verify", "--suite", "poisson", "--seed", "42", "--format", "json"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_python_dash_m_package():
    # `python -m deltasieve` runs the CLI from a source tree, no install needed
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "deltasieve", "verify", "--suite", "poisson",
         "--seed", "0", "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["suite"] == "poisson"


def test_constant_json():
    r = run_cli(["constant", "--theorem", "2", "--prime-bound", "1000"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["theorem"] == 2
    assert payload["value_lo"] <= payload["value_hi"]
    assert payload["value_hi"] - payload["value_lo"] <= 2 * payload["tail_bound"] + 1e-30
    r1 = run_cli(["constant", "--theorem", "1", "--prime-bound", "1000"])
    p1 = json.loads(r1.stdout)
    assert p1["value_lo"] <= payload["value_hi"] and payload["value_lo"] <= p1["value_hi"]


def test_constant_bad_prime_bound():
    for P in (4, -1, cli.MAX_PRIME_BOUND + 1):
        r = run_cli(["constant", "--theorem", "1", "--prime-bound", str(P)])
        assert r.returncode == 2, P
        assert r.stdout == ""


def test_count_csv(tmp_path):
    out = tmp_path / "counts.csv"
    r = run_cli(["count", "--X", "1,2", "--mode", "exact", "--out", str(out)])
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["X", "mode", "count_or_sum"]
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[2]) == 4.0
    # a smoothed list: its main term is C X^10, a quarter of the exact 4 C X^10
    r = run_cli(["count", "--X", "1,1.5", "--mode", "smoothed"])
    assert r.returncode == 0
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["1.0", "smoothed"], ["1.5", "smoothed"]]
    assert 4 * float(rows[0][3]) == float(first[3])  # main_lo at X = 1


def test_count_payload_deterministic_modulo_seconds(tmp_path):
    """The whole payload is byte-identical across reruns: the elapsed
    seconds go to stderr only."""
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        r = run_cli(["count", "--X", "1,2", "--out", str(out)])
        assert r.returncode == 0
        assert "count: " in r.stderr and " s\n" in r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b"seconds" not in outs[0]


def test_count_bad_X():
    for args in (
        ["--X", "abc"], ["--X", "nan"], ["--X", "inf"], ["--X", "1", "--threads", "0"],
        ["--X", "0.5"], ["--X", "1e-50"], ["--X", "1e-300", "--mode", "smoothed"],
    ):
        r = run_cli(["count", *args])
        assert r.returncode == 2, args
        assert r.stdout == ""


def test_balance_paper():
    r = run_cli(["balance", "--preset", "paper"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["exponent"] == "184/27"
    assert payload["t"] == "124/27" and payload["kappa"] == "16/31"
    assert abs(payload["exponent_decimal"] - (7 - 5 / 27)) < 1e-12


def test_balance_terms_file(tmp_path):
    f = tmp_path / "terms.json"
    f.write_text(json.dumps([{"const": "6"}]))
    r = run_cli(["balance", "--terms", str(f)])
    assert r.returncode == 0
    assert json.loads(r.stdout)["exponent"] == "6"
    bad = tmp_path / "bad.json"
    for text in ("[]", "[1, 2]", '[{"const": "1/0"}]', '[{"const": 6, "tk": 1}]'):
        bad.write_text(text)
        r = run_cli(["balance", "--terms", str(bad)])
        assert r.returncode == 2, text
        assert r.stdout == "" and "bad terms file: " in r.stderr, text


def test_bad_max_seconds_is_usage_error(monkeypatch, capsys):
    """A set DELTASIEVE_MAX_SECONDS must be a finite number >= 0, also for
    a suite that builds no guard; an empty value means unset."""
    for value in ("abc", "nan", "-1"):
        monkeypatch.setenv("DELTASIEVE_MAX_SECONDS", value)
        for argv in (["verify", "--suite", "poisson"], ["count", "--X", "1"]):
            assert cli.main(argv) == 2, (value, argv)
            out, err = capsys.readouterr()
            assert out == "" and "bad DELTASIEVE_MAX_SECONDS: " in err
    monkeypatch.setenv("DELTASIEVE_MAX_SECONDS", "")
    assert cli.main(["count", "--X", "1"]) == 0


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    """An --out payload or artifact that cannot be opened exits 2 with
    `cannot write <path>: ...`, not a traceback."""
    missing = tmp_path / "missing" / "x.json"
    assert cli.main(["constant", "--theorem", "1", "--out", str(missing)]) == 2
    assert f"cannot write {missing}: " in capsys.readouterr().err
    out = tmp_path / "v.csv"
    artifact = tmp_path / "v.csv.oscint.omega_rows.csv"
    artifact.mkdir()  # the payload can be written, its artifact cannot
    assert cli.main(["verify", "--suite", "oscint", "--format", "csv", "--out", str(out)]) == 2
    assert f"cannot write {artifact}: " in capsys.readouterr().err


def test_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    """An --out that is a directory or lies in a missing directory exits 2
    before any suite, count or product runs, with empty stdout and no file
    created."""

    def never(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    for name in ("run_suite", "exact_count", "euler_product"):
        monkeypatch.setattr(cli, name, never)
    missing = tmp_path / "missing" / "out.csv"
    for out in (missing, tmp_path):
        for argv in (
            ["verify", "--suite", "all", "--format", "csv"],
            ["count", "--X", "1,2"],
            ["constant", "--theorem", "1"],
        ):
            assert cli.main(argv + ["--out", str(out)]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and f"cannot write {out}: " in captured.err
    assert not missing.parent.exists() and list(tmp_path.iterdir()) == []


def test_time_budget_guard():
    r = run_cli(
        ["verify", "--suite", "expsum"],
        env={**os.environ, "DELTASIEVE_MAX_SECONDS": "0.0"},
    )
    assert r.returncode == 1
    assert "DELTASIEVE_MAX_SECONDS" in r.stderr


def test_count_time_budget_guard():
    r = run_cli(["count", "--X", "5"], env={**os.environ, "DELTASIEVE_MAX_SECONDS": "0.0"})
    assert r.returncode == 1
    assert "aborted:" in r.stderr and "DELTASIEVE_MAX_SECONDS" in r.stderr
    assert r.stdout == ""


def test_verify_failure_path(monkeypatch, capsys):
    from deltasieve import suites

    def fake_run_suite(name, seed=0):
        rep = suites.SuiteReport("expsum", seed)
        rep.checks.append(
            suites.CheckResult("exptrans_exhaustive_l15", False, 4.2, "l=13 m=2 n=-1")
        )
        return [rep]

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    ap = cli.build_parser()
    args = ap.parse_args(["verify", "--suite", "expsum", "--format", "text"])
    rc = args.func(args)
    captured = capsys.readouterr()
    assert rc == 1
    assert "exptrans_exhaustive_l15" in captured.err
    assert "l=13 m=2 n=-1" in captured.err


def test_kernel_error_fails_its_suite_and_count(monkeypatch, capsys):
    """A RuntimeError from the sieve kernel (here the B -> -B gate, tripped
    by a stage 2 that breaks the symmetry) fails the sieve suite with one
    check that carries it, while the other suites still run; `count` exits
    1 with `error: ...` on stderr and no payload."""
    from deltasieve import sieve, suites

    marked_rows = sieve._marked_rows

    def flip_one(As, Bmax, *rest):
        for i, buf in marked_rows(As, Bmax, *rest):
            if As[i] == 1:
                buf[(Bmax + 1) // 2] ^= True  # (A, B) = (1, 1)
            yield i, buf

    monkeypatch.setattr(sieve, "_marked_rows", flip_one)
    assert cli.main(["verify", "--suite", "all", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    reports = json.loads(out)["suites"]
    assert [r["name"] for r in reports] == list(suites.SUITES)
    assert [r["name"] for r in reports if not r["ok"]] == ["sieve"]
    (check,) = reports[list(suites.SUITES).index("sieve")]["checks"]
    assert check["name"] == "raised" and "stripe A = 1:" in check["detail"]
    assert "FAILED sieve.raised" in err
    assert cli.main(["count", "--X", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: stripe A = 1:" in err


def test_parser_flags():
    ap = cli.build_parser()
    ns = ap.parse_args(["verify", "--suite", "all", "--seed", "7"])
    assert ns.suite == "all" and ns.seed == 7
    with pytest.raises(SystemExit):
        ap.parse_args(["verify", "--suite", "bogus"])
