"""Run one thresholdyn benchmark workload, or all of them, in a fresh process.

    python3 perfbench/run.py --workload mbo-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own child process whose environment pins the
BLAS/OpenMP thread count to 1 before numpy loads (the program's ``--threads``
flag cannot do this in-process).  For one workload the child's output is
passed through: an ``{"info": ...}`` line, then the result line.  ``all``
runs every workload untraced and traced and prints every named metric with
its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mbo-paper", "meta-desk", "cli-data")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 175


def child_command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, capture: bool):
    """Run one workload child to completion; a child that overruns is killed
    and waited for by ``subprocess.run``."""
    return subprocess.run(child_command(workload, seed, seconds, trace), env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False,
                          stdout=subprocess.PIPE if capture else None, text=True)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(seed: int, seconds: float) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_child(workload, seed, seconds, trace, capture=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"== {workload} ({'traced: per-layer, per cycle' if trace else 'untraced'}) "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            shown = result["metrics"] if trace else info["named"]
            for name, m in shown.items():
                print(f"  {name:40s} {_fmt(m['value']):>14s} {m['unit']}")
            if trace:
                for name, value in info["trace_overhead"].items():
                    print(f"  trace_overhead.{name:25s} {_fmt(value):>14s}")
            else:
                print("  meta " + json.dumps(info["meta"], sort_keys=True))
            for failure in info["failures"]:
                print(f"  FAILED: {failure}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thresholdyn" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        return run_child(args.workload, args.seed, args.seconds, args.trace,
                         capture=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
