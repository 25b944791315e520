"""One workload run in a fresh process; ``run.py`` starts it.

Prints ``ready`` once the inputs are in place (the parent times set-up up
to that line), then, in the ``run`` phase, measures, checks, and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A human-readable report, every failure included, goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import SpeedProbe  # noqa: E402
from workloads import (WORKLOADS, Ledger, PassResult,  # noqa: E402
                       check_witnesses, memories_in)

# oracle_sweep's end-to-end setting.  At --jobs 2 every call pays a process
# pool start-up whose cost swings with the host (median call latency 21 to
# 51 ms over ten runs); the traced run compares both settings instead.
E2E_JOBS = 1


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with ten samples or fewer, the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 1.0
    return ordered[n - 11], (n - 10) / n


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for (oracle workers)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def measure(workload, prep, ledger, seconds: float) -> dict:
    """Repeat the fixed work while another pass fits in ``seconds`` (at least once).

    Each pass is timed under a ``SpeedProbe``; ``wall_ref_s`` is the median
    pass time at the reference host speed, and the raw wall times go to
    stderr.
    """
    passes: list[PassResult] = []
    reference: list[float] = []
    start = time.perf_counter()
    while True:
        with SpeedProbe() as probe:
            passes.append(workload.run_pass(prep, ledger, E2E_JOBS))
        reference.append(probe.reference_time(passes[-1].wall))
        print(f"  pass {len(passes)}: wall {passes[-1].wall:.3f} s, probe "
              f"{probe.probe_s:.3f} s over {len(probe.samples)} samples, "
              f"speed {probe.speed():.3f}, at reference speed "
              f"{reference[-1]:.3f} s", file=sys.stderr)
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    check_witnesses(prep, ledger)
    memories = sum(memories_in(w) for w in prep.witnesses.values())
    print(f"{workload.name}: {len(passes)} pass(es); states constructed "
          f"{passes[-1].states_constructed}; oracle candidates "
          f"{passes[-1].candidates}; witness memories {memories}",
          file=sys.stderr)
    for name, (value, unit, note) in latency_metrics(passes[0]).items():
        print(f"  {name} {value:.3f} {unit} ({note})", file=sys.stderr)
    return {
        "wall_ref_s": (statistics.median(reference), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "witness_memories": (memories, "count"),
    }


def latency_metrics(untraced: PassResult) -> dict[str, tuple[float, str, str]]:
    """Per-operation latency of an untraced pass: median and tail."""
    value, percentile = tail(untraced.latencies)
    n = len(untraced.latencies)
    return {
        "op.p50_ms": (1000 * statistics.median(untraced.latencies), "ms",
                      f"median of {n} operations, untraced"),
        "op.tail_ms": (1000 * value, "ms",
                       f"p{100 * percentile:.1f} of {n} operations, untraced"),
    }


def forked_pass(workload, prep, ledger, jobs: int) -> PassResult:
    """One untraced pass in a forked copy of this process.

    The copy starts from the same state as the pass that follows it here,
    and its memory does not raise this process's peak RSS.  Its operations
    and failures are counted in ``ledger``.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            p = workload.run_pass(prep, ledger, jobs)
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump({"pass": dataclasses.asdict(p),
                           "ledger": [ledger.attempted, ledger.failed,
                                      ledger.problems]}, pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked pass exited with status {status}")
    payload = json.loads(text)
    ledger.attempted, ledger.failed, ledger.problems = payload["ledger"]
    return PassResult(**payload["pass"])


def traced(workload, prep, ledger, spans_path: Path) -> dict:
    """Untraced, traced and untraced passes of the same work.

    The first untraced pass runs in a forked copy, so the traced pass is
    the first in this process and peak RSS still grows inside its spans.
    ``trace.overhead_s`` compares the traced pass with the mean of the
    untraced passes on either side of it.
    """
    from spans import Tracer, per_layer

    before = forked_pass(workload, prep, ledger, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = workload.run_pass(prep, ledger, 1)
    finally:
        tracer.uninstall()
    after = workload.run_pass(prep, ledger, 1)
    extra = {"oracle.jobs2_speedup": (0.0, "ratio", "no oracle calls"),
             "oracle.candidates_per_s": (0.0, "1/s", "no oracle calls")}
    if workload.name == "oracle_sweep":
        two = workload.run_pass(prep, ledger, 2)
        extra["oracle.jobs2_speedup"] = (
            after.wall / two.wall, "ratio",
            f"base: {after.wall:.3f} s at --jobs 1 / {two.wall:.3f} s "
            f"at --jobs 2, untraced, consecutive passes")
        extra["oracle.candidates_per_s"] = (
            two.candidates / two.wall, "1/s",
            f"base: {two.candidates} candidates / {two.wall:.3f} s "
            f"untraced at --jobs 2")
    check_witnesses(prep, ledger)
    extra.update(latency_metrics(before))
    metrics = per_layer(tracer, traced_pass.wall, (before.wall, after.wall),
                        extra)
    print(f"{workload.name}: traced run, {len(tracer.spans)} spans "
          f"(written to {spans_path.relative_to(ROOT)})", file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit:6s} {note}", file=sys.stderr)
    spans_path.write_text(json.dumps(
        {"fields": ["label", "start", "end", "parent", "op"],
         "spans": tracer.spans}), encoding="utf-8")
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--verdicts", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        table = json.loads(args.verdicts.read_text(encoding="utf-8"))
        ledger = Ledger(table)
        prep = workload.prepare(workdir, args.seed, args.smoke,
                                ledger if args.phase == "run" else None)
        print("ready", flush=True)
        if args.phase == "setup":
            return 0
        if args.trace:
            spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
            metrics = traced(workload, prep, ledger, spans_path)
        else:
            metrics = measure(workload, prep, ledger, args.seconds)
    finally:
        shutil.rmtree(workdir)
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"failed_frac {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.4f}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
