"""Run every workload over several seeds, each run in a fresh process.

Usage, from the repository root::

    python3 perfbench/suite.py --seeds 1 2 3 --seconds 28 [--trace 1]

Repeat ``r`` uses the ``r``-th seed and starts the workload list at
position ``r``, so no workload always runs first on a cold machine. For
each workload and metric the suite prints the median over the repeats
and the spread: the distance between the first and third quartile as a
share of the median. The summary, stamped with the environment, the
seeds and the commit, is written to ``perfbench/results/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.run import RESULTS_DIR, commit_id  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def rotated(items, repeat: int) -> list:
    shift = repeat % len(items)
    return list(items[shift:]) + list(items[:shift])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median) of ``values``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    quartiles = statistics.quantiles(values, n=4)
    return median, (quartiles[2] - quartiles[0]) / median if median else 0.0


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
    return {
        "returncode": completed.returncode,
        "wall_s": time.perf_counter() - started,
        **(json.loads(lines[-1]) if lines else {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    from benchmarks.env_meta import environment_metadata

    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for repeat, seed in enumerate(arguments.seeds):
        for workload in rotated(WORKLOADS, repeat):
            result = run_one(workload, seed, arguments.seconds, arguments.trace)
            result["seed"] = seed
            runs[workload].append(result)
            print(f"# {workload} seed={seed} exit={result['returncode']} "
                  f"failed={result.get('failed')}/{result.get('attempted')} "
                  f"wall={result['wall_s']:.1f}s", flush=True)

    summary = {}
    ok = True
    for workload, results in runs.items():
        ok &= all(r["returncode"] == 0 and r.get("correct") for r in results)
        metrics = {}
        for name in results[0].get("metrics", {}):
            values = [r["metrics"][name]["value"] for r in results if "metrics" in r]
            median, share = spread(values)
            metrics[name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median,
                "iqr_share": share,
                "values": values,
            }
            print(f"{workload:16s} {name:34s} {median:14.6g} "
                  f"{metrics[name]['unit']:6s} spread {share:7.2%}")
        attempted = sum(r.get("attempted", 0) for r in results)
        failed = sum(r.get("failed", 0) for r in results)
        print(f"{workload:16s} {'error_rate':34s} {failed / max(1, attempted):14.6g} ratio")
        summary[workload] = {"metrics": metrics, "attempted": attempted, "failed": failed}

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "suite.json").write_text(json.dumps({
        "seeds": arguments.seeds,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "commit": commit_id(),
        "environment": environment_metadata(),
        "workloads": summary,
    }, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
