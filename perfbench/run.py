"""deltasieve benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload {count,verify,quadrature} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}] [--reference FILE]

Both modes first make the workload's warm-up call and one untimed smoke-size
pass.  --trace 0 then times whole passes with tracing off, as many as fit in
S seconds (at least one), and reports the end-to-end metrics of
BENCHMARK.json (medians over passes).  --trace 1 makes one untraced and one
traced pass and reports the per-layer metrics.  Every output is gated; a run with a failed output prints
no timing and exits 1.  The last line of stdout is the JSON result; the full
record (environment stamp, passes, failures, spans) goes to perfbench/out/.
Run it from the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 8  # half before the timed passes, half after them
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("count", "verify", "quadrature"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    return ap.parse_args(argv)


def bench_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args) -> dict:
    import mpmath
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
    }


def measure_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter to the end of
    `import deltasieve` plus the workload's warm-up call.  The child reads
    CLOCK_MONOTONIC, which Linux shares between processes, so its exit is
    not counted."""
    code = (
        "import time, deltasieve, workloads; "
        f"workloads.WORKLOADS[{workload!r}].warmup(); print(time.monotonic())"
    )
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=bench_env(), cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    t1 = time.monotonic()
    done = float(proc.stdout)
    if not t0 < done <= t1:
        raise RuntimeError("the setup probe's clock is not shared with this process")
    return done - t0


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_pass(wl, tracer, args, ref, size=None):
    """One pass, its wall and CPU seconds; the untimed re-checks follow it."""
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    with tracer.span("bench." + args.workload):
        out = wl.run(tracer, args.seed, size or args.size, ref)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    if wl.recheck:
        wl.recheck(out, args.seed)
    return out, wall, cpu


def settle(wl, args, ref, record):
    """The warm-up call, then one untimed smoke-size pass, whose outputs are
    gated too.  Without the pass the first timed pass of `quadrature` spends
    ~1.8 s more in the kernel (page faults of fresh large arrays) than every
    later pass."""
    wl.warmup()
    out, _, _ = timed_pass(wl, Tracer("settle", False), args, ref, size="smoke")
    record["settle"] = {"attempted": out.attempted, "failures": out.failures}


def end_to_end(args, wl, ref, record):
    setups = [measure_setup(args.workload) for _ in range(SETUP_REPEATS // 2)]
    settle(wl, args, ref, record)
    tracer = Tracer(run_id="untraced", enabled=False)
    passes = []
    start = time.perf_counter()
    while True:
        out, wall, cpu = timed_pass(wl, tracer, args, ref)
        passes.append({
            "wall_s": wall, "cpu_s": cpu, "items": out.items,
            "attempted": out.attempted, "failures": out.failures, "info": out.info,
        })
        # one more pass only if it should end inside the budget
        if time.perf_counter() - start + wall > args.seconds:
            break
    # the host's speed drifts over tens of seconds; probing on both sides of
    # the passes keeps one slow stretch from setting the median
    setups += [measure_setup(args.workload) for _ in range(SETUP_REPEATS // 2)]
    record["setup_s"] = setups
    record["passes"] = passes
    walls = [p["wall_s"] for p in passes]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "items_per_s": (statistics.median(p["items"] / p["wall_s"] for p in passes), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }, passes


def _dur(s):
    return s["end"] - s["start"]


def layer_metrics(spans, out, untraced_wall: float, traced_wall: float) -> dict:
    def named(name, **tags):
        return [s for s in spans if s["name"] == name
                and all(s["tags"].get(k) == v for k, v in tags.items())]

    def total(name, **tags):
        return sum(_dur(s) for s in named(name, **tags))

    def peak(name):
        return max((s.get("peak_mb", 0.0) for s in named(name)), default=0.0)

    c = out.counters
    m = {}
    single = named("sieve.exact_count", threads=1)
    single_s = sum(_dur(s) for s in single)
    pairs = c.get("sieve.pairs", 0)
    m["sieve.exact_count.s"] = (single_s, "s")
    m["sieve.exact_count.calls"] = (len(single), "count")
    m["sieve.exact_count.ns_per_pair"] = (single_s / pairs * 1e9 if pairs else 0.0, "ns")
    m["sieve.pairs"] = (pairs, "count")
    m["sieve.survivors"] = (c.get("sieve.survivors", 0), "count")
    m["sieve.survivor_ratio"] = (c.get("sieve.survivors", 0) / pairs if pairs else 0.0, "ratio")
    m["sieve.primes"] = (c.get("sieve.primes", 0), "count")
    m["sieve.exact_count.peak_mb"] = (max((s.get("peak_mb", 0.0) for s in single), default=0.0), "MiB")
    par = [s for s in named("sieve.exact_count") if s["tags"].get("threads", 1) > 1]
    m["sieve.parallel.s"] = (sum(_dur(s) for s in par), "s")
    speedup = 0.0
    for p in par:
        same_x = named("sieve.exact_count", threads=1, X=p["tags"]["X"])
        if same_x:
            speedup = _dur(same_x[0]) / _dur(p)
    m["sieve.parallel_speedup"] = (speedup, "ratio")
    m["sieve.naive_squarefree_count.s"] = (total("sieve.naive_squarefree_count"), "s")
    m["sieve.naive_squarefree_count.peak_mb"] = (peak("sieve.naive_squarefree_count"), "MiB")
    m["sieve.mobius_sieve_identity.s"] = (total("sieve.mobius_sieve_identity"), "s")
    m["sieve.smoothed_count.s"] = (total("sieve.smoothed_count"), "s")
    m["density.euler_product.s"] = (total("density.euler_product"), "s")
    m["density.euler_product.calls"] = (len(named("density.euler_product")), "count")
    for suite in ("arith", "characters", "density", "expsum", "poisson", "oscint"):
        m[f"suites.{suite}.s"] = (total("suites.run_suite", suite=suite), "s")
    m["suites.checks"] = (c.get("suites.checks", 0), "count")
    m["suites.checks_failed"] = (c.get("suites.checks_failed", 0), "count")

    ev_ms = sorted(_dur(s) * 1e3 for s in named("oscint.I_eval"))
    m["oscint.I_eval.s"] = (sum(ev_ms) / 1e3, "s")
    m["oscint.I_eval.calls"] = (len(ev_ms), "count")
    m["oscint.I_eval.p50_ms"] = (statistics.median(ev_ms) if ev_ms else 0.0, "ms")
    m["oscint.I_eval.p90_ms"] = (
        statistics.quantiles(ev_ms, n=10)[-1] if len(ev_ms) > 1 else max(ev_ms, default=0.0),
        "ms")
    betas = c.get("oscint.betas", [])
    repeats = len(betas) - len(set(betas))
    m["oscint.shared_beta_frac"] = (repeats / len(betas) if betas else 0.0, "ratio")
    m["oscint.omega_scan.s"] = (total("oscint.omega_scan"), "s")
    m["oscint.station_envelope_scan.s"] = (total("oscint.station_envelope_scan"), "s")
    m["oscint.I1_G1_eval.s"] = (total("oscint.I1_G1_eval"), "s")
    m["oscint.quadrature_errors"] = (c.get("oscint.quadrature_errors", 0), "count")

    roots = [s for s in spans if s["parent"] is None]
    m["unattributed.s"] = (sum(self_times(spans)[s["id"]] for s in roots), "s")
    m["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    return m


def probe_memory(spans):
    """Run each call a span kept as ``probe`` again in a fresh process and
    record its peak memory growth.  Done after the traced pass because
    tracemalloc slows the sieve about six-fold, which would distort its span."""
    for s in spans:
        probe = s.pop("probe", None)
        if probe is not None:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "memprobe.py")], input=pickle.dumps(probe),
                env=bench_env(), cwd=ROOT, capture_output=True, check=True,
            )
            s["peak_mb"] = float(proc.stdout)


def traced(args, wl, ref, record):
    settle(wl, args, ref, record)
    base, untraced_wall, _ = timed_pass(wl, Tracer("untraced", False), args, ref)
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}", enabled=True)
    out, traced_wall, _ = timed_pass(wl, tracer, args, ref)
    probe_memory(tracer.spans)
    record["spans"] = tracer.spans
    record["passes"] = [
        {"trace": t, "wall_s": w, "items": o.items, "attempted": o.attempted,
         "failures": o.failures}
        for t, o, w in ((0, base, untraced_wall), (1, out, traced_wall))
    ]
    return layer_metrics(tracer.spans, out, untraced_wall, traced_wall), record["passes"]


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update({k: "1" for k in PINNED_THREADS})  # before numpy loads
    if not (SRC / "deltasieve" / "__init__.py").is_file():
        print(f"perfbench: no deltasieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import deltasieve

    if Path(deltasieve.__file__).resolve().parent != SRC / "deltasieve":
        print(f"perfbench: imported {deltasieve.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import workloads

    ref = json.loads(args.reference.read_text())
    wl = workloads.WORKLOADS[args.workload]
    record = {"env": stamp(args)}
    measure = traced if args.trace else end_to_end
    metrics, passes = measure(args, wl, ref, record)

    gated = [record["settle"], *passes]
    attempted = sum(p["attempted"] for p in gated)
    failed = sum(len(p["failures"]) for p in gated)
    record["env"]["items_per_pass"] = passes[0]["items"]
    record["env"]["passes"] = len(passes)
    ok_frac = 1.0 - failed / attempted
    if failed:
        # a wrong answer never produces a timing
        metrics = {"ok_frac": (ok_frac, "ratio")} if not args.trace else {}
    elif not args.trace:
        metrics["ok_frac"] = (ok_frac, "ratio")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    dest = OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    dest.write_text(json.dumps(record, indent=1, default=str))

    print("# env " + json.dumps(record["env"]))
    for p in gated:
        for name in p["failures"]:
            print(f"# FAILED {name}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
