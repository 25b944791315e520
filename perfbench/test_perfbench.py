"""The benchmark's own test: a smoke pass of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import SpeedProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_a_wrong_recorded_verdict_fails_the_run(tmp_path):
    table = json.loads((HERE / "verdicts.json").read_text(encoding="utf-8"))
    key = "solve_mix/mix00/almost"
    table[key] = {"yes": "no", "no": "yes"}[table[key]]
    wrong = tmp_path / "verdicts.json"
    wrong.write_text(json.dumps(table), encoding="utf-8")
    proc = bench(ROOT, "--workload", "solve_mix", "--trace", "0", "--smoke",
                 "--verdicts", str(wrong))
    assert proc.returncode != 0
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert key.split("/")[1] in proc.stderr


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_the_speed_probe_samples_during_a_pass_and_discounts_itself():
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 4
    assert 0 < probe.probe_s < 0.35 / 4
    assert probe.speed() > 0
    assert probe.reference_time(0.35) < 0.35 * probe.speed()
