"""The benchmark's own determinism test.

    python3 perfbench/determinism.py [--workload NAME] [--seed N]

For each workload it makes two untraced runs and one traced run of one
repeat each, then requires that every deterministic metric (the modeled
ones, ``specialized_hit_rate``, ``warm_first_hit_us``, ``code_bytes`` and
``error_rate``) is identical across the two untraced runs, and identical
between the untraced and the traced repeats -- the span wrappers must
never touch the virtual clock. Exits non-zero on any difference or on
any failed run. Takes about four minutes for all three workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DETERMINISTIC, OUT, WORKLOAD_NAMES  # noqa: E402


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}")
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def modeled(metrics: dict) -> dict:
    return {k: metrics[k]["value"] for k in DETERMINISTIC}


def check(workload: str, seed: int) -> list:
    first = one_run(workload, seed, 0)
    second = one_run(workload, seed, 0)
    traced = one_run(workload, seed, 1)
    views = {
        "untraced run 1": modeled(first["end_to_end"]),
        "untraced run 2": modeled(second["end_to_end"]),
        "traced run, untraced repeat": modeled(traced["end_to_end"]),
        "traced run, traced repeats": modeled(traced["traced_end_to_end"]),
    }
    base = views["untraced run 1"]
    problems = []
    for label, view in views.items():
        for key in DETERMINISTIC:
            if view[key] != base[key]:
                problems.append(f"{workload}: {key} = {view[key]!r} in {label}, "
                                f"{base[key]!r} in untraced run 1")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    problems = []
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        found = check(workload, args.seed)
        print(f"{workload}: {'ok' if not found else 'DIFFERS'}")
        problems.extend(found)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
