"""The lef benchmark: run one workload, check its outputs, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload disk-c4-p8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Every sample is its own process (perfbench/worker.py) that imports lef
from ``src/``, makes one ``lef`` call and checks what it wrote; BLAS and
OpenMP are pinned to one thread so each run is the single-threaded
baseline.  With ``--trace 0`` the run first starts SETUP_SAMPLES
processes that stop right before the timed call, then repeats the timed
call while another one fits in ``--seconds``, and prints the end-to-end
metrics.  With ``--trace 1`` it makes one untraced and one traced call
and prints the per-layer metrics; their difference is the tracing
overhead.  The last line of standard output is one JSON object; the full
record (environment, every sample, its checks) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>/result.json`` and the
spans of a traced call to ``trace/spans.json`` in the same directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import spans
from workloads import WORKLOADS

# every worker runs BLAS and OpenMP on one thread: the plain
# single-threaded baseline, comparable between commits
THREAD_ENV = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_SAMPLES = 4       # setup-only processes per run, besides each solve
RUN_LIMIT_S = 170.0     # a run must end within 180 s
RUN_SECONDS = 30

# (name, unit, better, bound): bound is the share of the parent's median
# by which a later change may worsen the metric.
END_TO_END = (
    ("solve_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_rate", "ratio", "higher", 0.01),
)
OVERHEAD_METRICS = {"trace.untraced_solve_s": "s", "trace.overhead_s": "s"}


def timing_summary(values: list) -> dict:
    """Median, quartiles and the highest percentile with ten samples above
    it (None below eleven samples), with the sample count."""
    xs = sorted(values)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else xs * 3
    tail = None
    if n >= 11:
        k = n - 11          # xs[k] has exactly ten samples above it
        tail = {"percentile": 100.0 * (k + 1) / n, "value": xs[k]}
    return {"n": n, "median": statistics.median(xs), "q1": q1, "q3": q3,
            "tail": tail}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "platform": platform.platform(),
            "threads": THREAD_ENV}


def _child_env() -> dict:
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(mode: str, args, workdir: Path, deadline: float) -> dict:
    """One worker process; its JSON result, or a failed sample."""
    workdir.mkdir(parents=True)
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), repr(spawned), str(workdir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_child_env())
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": f"{mode} process timed out"}
    except BaseException:   # interrupted: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"ok": False, "error": f"{mode} process failed: {tail[0]}",
                "stderr": err}
    return json.loads(out.strip().splitlines()[-1])


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {k: u for k, (_, u)
             in spans.layer_metrics(spans.Tracer("", ""), 1.0).items()}
    return {**units, **OVERHEAD_METRICS}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": wl.why}
                      for name, wl in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n == "trace.coverage"
                       else "lower"}
                      for n, u in per_layer_units().items()],
    }


def _describe(i: int, s: dict) -> str:
    if "solve_s" not in s:
        return f"sample {i}: FAILED {s.get('error')}"
    rec = s.get("record", {})
    failed = [k for k, v in rec.get("checks", {}).items() if not v]
    keep = {k: v for k, v in rec.items() if k != "checks"}
    return (f"sample {i}: solve_s={s['solve_s']:.4f} cpu_s={s['cpu_s']:.4f} "
            f"peak_rss_mb={s['peak_rss_mb']:.1f} ok={s['ok']}"
            + (f" failed_checks={failed}" if failed else "")
            + f" {json.dumps(keep)}")


def measure(args, rundir: Path, deadline: float) -> tuple:
    """End-to-end metrics, tracing off."""
    setups = []
    for i in range(SETUP_SAMPLES):
        s = spawn("setup", args, rundir / f"setup{i}", deadline)
        if "setup_s" not in s:
            raise SystemExit(f"perfbench: set-up failed: {s['error']}")
        setups.append(s["setup_s"])
    samples = []
    start = time.monotonic()
    while True:
        samples.append(spawn("solve", args, rundir / f"solve{len(samples)}",
                             deadline))
        elapsed = time.monotonic() - start
        per = elapsed / len(samples)
        if elapsed + per > args.seconds or \
                time.monotonic() + 1.5 * per > deadline:
            break
    timed = [s for s in samples if "solve_s" in s]
    if not timed:
        raise SystemExit(f"perfbench: no sample ran: {samples[0]['error']}")
    setups += [s["setup_s"] for s in timed]
    passed = sum(1 for s in samples if s.get("ok"))
    metrics = {
        "solve_s": statistics.median(s["solve_s"] for s in timed),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(s["cpu_s"] for s in timed),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in timed),
        "pass_rate": passed / len(samples),
    }
    stats = {"solve_s": timing_summary([s["solve_s"] for s in timed]),
             "setup_s": timing_summary(setups),
             "fail_rate": 1.0 - metrics["pass_rate"]}
    units = {n: u for n, u, _, _ in END_TO_END}
    return {n: (v, units[n]) for n, v in metrics.items()}, samples, stats


def trace(args, rundir: Path, deadline: float) -> tuple:
    """Per-layer metrics: one untraced and one traced call."""
    plain = spawn("solve", args, rundir / "solve", deadline)
    traced = spawn("trace", args, rundir / "trace", deadline)
    samples = [plain, traced]
    if "layers" not in traced or "solve_s" not in plain:
        raise SystemExit("perfbench: traced run failed: "
                         f"{traced.get('error') or plain.get('error')}")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.untraced_solve_s"] = (plain["solve_s"], "s")
    metrics["trace.overhead_s"] = (traced["solve_s"] - plain["solve_s"], "s")
    return metrics, samples, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "lef" / "__init__.py").is_file():
        print(f"perfbench: no lef sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run raises SystemExit, so spawn() stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_LIMIT_S
    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    env = environment()
    print("environment: " + json.dumps(env))
    metrics, samples, stats = (trace if args.trace else measure)(
        args, rundir, deadline)
    for i, s in enumerate(samples):
        print(_describe(i, s))
    for name, summary in stats.items():
        print(f"{name}: {json.dumps(summary)}")
    failed = sum(1 for s in samples if not s.get("ok"))
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    (rundir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "trace": args.trace, "environment": env, "samples": samples,
         "stats": stats, **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
