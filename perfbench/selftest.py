"""Tests of the benchmark itself.

Run from the repository root (they start the benchmark in fresh
processes, about two minutes in all)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.run import COUNTERS, PER_LAYER_UNITS  # noqa: E402
from perfbench.tracing import SELF_TIME_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: A seed no figure in BENCHMARK.json or the tuning runs was taken with.
HELD_OUT_SEED = 987_654

COUNT_METRICS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]
RATIO_COUNTS = ("matrix.recompute.dirty_share", "trace.readvise_share", "resilience.checkpoint_kb")


def bench(workload: str, seed: int, trace: int, cwd=ROOT) -> tuple[int, str]:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return completed.returncode, completed.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first_code, first = bench(workload, 5, trace=1)
    second_code, second = bench(workload, 5, trace=1)
    assert first_code == second_code == 0
    first, second = last_json(first)["metrics"], last_json(second)["metrics"]
    for name in COUNT_METRICS + list(RATIO_COUNTS):
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_every_check(workload):
    code, stdout = bench(workload, HELD_OUT_SEED, trace=0)
    result = last_json(stdout)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [metric["name"] for metric in spec()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(result["metrics"][name]["value"] > 0 for name in names)


def test_layer_self_times_add_up_to_the_traced_op():
    code, stdout = bench("replay-stream", HELD_OUT_SEED, trace=1)
    assert code == 0
    metrics = last_json(stdout)["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec()["per_layer"])
    total = sum(metrics[name]["value"] for name in set(SELF_TIME_METRICS.values()))
    assert total == pytest.approx(metrics["traced_op_ms"]["value"], rel=1e-9)
    assert metrics["session.apply_ms"]["value"] > 0
    assert metrics["resilience.checkpoint_ms"]["value"] > 0


def test_counters_are_the_recorder_vocabulary():
    assert set(COUNT_METRICS) <= set(COUNTERS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, stdout = bench("advise-short", 1, trace=0, cwd=tmp_path)
    assert code != 0
    assert stdout.strip() == ""
