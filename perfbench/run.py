"""Benchmark entry point: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh child processes (``child.py``), so import and
set-up costs are paid as a user pays them and peak RSS belongs to the
workload alone.  With ``--trace 0`` the measuring child and fourteen
set-up-only children, half before it and half after, each time set-up
(process start to inputs ready).  Each set-up time is rescaled to the
reference host speed measured just before the child starts and just
after it is ready (see ``hostspeed``); ``setup_s`` is the median, so it
averages over the whole run.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The exit code
is 0 only when every operation succeeded and every output checked out.

``--smoke`` runs tiny inputs; ``--verdicts`` names another verdict table.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import speed_now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15
DEADLINE_S = 170.0


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], deadline: float) -> tuple[float, str, int]:
    """Start a child; return (seconds until it printed ``ready`` at the
    reference host speed, the rest of its stdout, exit code).  The child
    and its workers are killed at the deadline."""
    before = speed_now()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - start), _kill, (proc,))
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        setup *= (before + speed_now()) / 2
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if ready.strip() != "ready":
        return setup, "", proc.returncode or 1
    return setup, rest, proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--verdicts", type=Path, default=HERE / "verdicts.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "pomparity" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--verdicts", str(args.verdicts.resolve())]
    common += ["--smoke"] * args.smoke
    setups: list[float] = []
    samples = 0 if args.trace else SETUP_SAMPLES - 1

    def sample_setups(count: int) -> bool:
        for _ in range(count):
            setup, _, code = run_child(common + ["--phase", "setup"], deadline)
            if code != 0:
                print(f"error: set-up child exited {code}", file=sys.stderr)
                return False
            setups.append(setup)
        return True

    if not sample_setups(samples // 2):
        return 1
    setup, out, code = run_child(common + ["--phase", "run"], deadline)
    setups.append(setup)
    if code == 0 and not sample_setups(samples - samples // 2):
        return 1
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"error: measuring child exited {code}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
        print(f"setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups),
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
