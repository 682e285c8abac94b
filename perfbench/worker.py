"""One benchmark process: set up, make one timed ``lef`` call, check it.

Usage (started by run.py, one process per sample):

    python3 perfbench/worker.py MODE WORKLOAD SEED SPAWN_TIME WORKDIR

MODE is ``setup`` (stop right before the timed call), ``solve`` (time the
call with tracing off) or ``trace`` (time it with every layer wrapped).
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process, so setup time counts interpreter start-up and imports.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list) -> dict:
    mode, workload, seed, spawned, workdir = argv
    seed, workdir = int(seed), Path(workdir)

    from lef import cli

    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    cli_args = wl.inputs(seed, workdir)
    out = {"setup_s": time.monotonic() - float(spawned)}
    if mode == "setup":
        return out

    tracer = undo = None
    if mode == "trace":
        tracer = spans.Tracer(f"{workload}-seed{seed}", workload)
        undo = spans.install(tracer)
    cpu0, t0 = _cpu_s(), time.perf_counter()
    error = None
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            exit_code = cli.main(cli_args)
    except Exception:  # a crash of the program is a failed sample
        exit_code, error = None, traceback.format_exc()
    solve_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    if undo is not None:
        spans.uninstall(undo)
    ok, record = False, {"error": error}
    if error is None:
        try:
            ok, record = wl.check(exit_code, workdir)
        except (OSError, KeyError, ValueError, TypeError):
            record = {"error": "unreadable outputs: " + traceback.format_exc()}
    out.update(solve_s=solve_s, cpu_s=cpu_s,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               exit_code=exit_code, ok=ok, record=record)
    if tracer is not None and error is None:
        out["layers"] = spans.layer_metrics(tracer, solve_s)
        tracer.dump(workdir / "spans.json", seed=seed)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
