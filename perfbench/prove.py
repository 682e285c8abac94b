"""Steadiness check: run the benchmark over several seeds, report spreads.

Usage, from the repository root:

    python3 perfbench/prove.py --workload disk-c4-p8 --seeds 1-10

Runs ``run.py`` once per seed (tracing off) and prints, for every
end-to-end metric, the ten values, their median and quartiles and the
spread (q3 - q1) / median beside the metric's bound.  A benchmark is
steady when every spread other than setup_s's stays below a third of its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    args = parser.parse_args(argv)

    values: dict = {name: [] for name, *_ in run.END_TO_END}
    for seed in _seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(run.RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=HERE.parent)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
            flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    for name, _, _, bound in run.END_TO_END:
        s = run.timing_summary(values[name])
        spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name}: median={s['median']:.4f} q1={s['q1']:.4f} "
              f"q3={s['q3']:.4f} n={s['n']} spread={spread:.4f} "
              f"bound={bound} {verdict if name != 'setup_s' else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
