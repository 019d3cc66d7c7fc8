"""Columnar kernel vs the scalar formulas: end-to-end matrix builds.

``CostMatrix.compute`` prices the whole matrix as numpy array operations
over all (row, organization) pairs, replacing ~0.8M scalar cost-model
calls at path length 40 with a few hundred vectorized passes. The scalar
formulas (:func:`repro.costmodel.subpath.subpath_processing_cost`, one
row and organization at a time) are the paper's reference and the
kernel's parity oracle — the two are bit-identical entry by entry
(asserted here on every run, and property-pinned in
``tests/test_kernel_parity.py``). The scalar side is timed as a direct
loop over those formulas.

Three timing regimes, because the scalar formulas lean on memo tables:

* **fresh** (the primary metric) — every repeat builds a new
  ``PathStatistics`` world *and* clears the module-level Yao memo
  tables, the first-build cost a caller actually pays on new inputs;
* **warm** — same statistics object rebuilt with hot caches, the floor
  for repeated builds inside one process; the kernel hits the
  persistent ``StatArrays`` lowering cache and must beat the warm
  scalar loop by :data:`WARM_MIN_SPEEDUP`;
* **dirty_slice** — a deterministic edge-drift recompute chain: each
  step re-prices only its dirty rows, the kernel as an array-slice
  evaluation over the cached (workload-patched) lowering, the scalar
  side as a loop over the same rows.

The full run also records kernel-only fresh serial builds at lengths
100 and 200 (``long``), each with the tracemalloc peak of one further
build beside its time; the scalar loop stays untimed at those lengths.

Results land in ``benchmarks/results/BENCH_kernel.json``. The full run
targets the acceptance bar: the kernel >= 5x the scalar loop on fresh
serial builds at length 40. ``--smoke`` runs length 20 and fails when
the kernel stops beating the scalar loop on fresh builds, the warm
rebuild drops below the persistent-lowering floor, or the dirty-slice
chain stops slicing on the kernel.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_kernel.py           # full
    PYTHONPATH=src:. python benchmarks/bench_kernel.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time
import tracemalloc

from benchmarks.env_meta import environment_metadata
from repro.core.cost_matrix import CostMatrix
from repro.costmodel import yao
from repro.costmodel.params import ClassStats, CostModelConfig, PathStatistics
from repro.costmodel.subpath import SubpathContext, subpath_processing_cost
from repro.organizations import EXTENDED_ORGANIZATIONS
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution, LoadTriplet

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JSON_NAME = "BENCH_kernel.json"

#: The acceptance bar: the kernel >= 5x the scalar loop on fresh serial
#: builds at length 40 (the full run records it; measured ~8x on a dev box).
FULL_TARGET_SPEEDUP = 5.0

#: CI guard: generous so machine noise never flakes the build, tight
#: enough to catch the kernel silently degrading to scalar fallbacks.
SMOKE_MIN_SPEEDUP = 1.5

#: Warm rebuilds must hit the persistent StatArrays lowering cache and
#: beat the warm scalar loop by at least this factor
#: (guarded in smoke too — a cache regression shows up immediately).
WARM_MIN_SPEEDUP = 3.0

#: CI guard for the dirty-slice recompute chain: columnar slices over
#: cached/patched lowerings must beat the scalar per-row loop. Generous
#: (measured ~3x on edge drift) so noise never flakes the build.
DIRTY_MIN_SPEEDUP = 1.3

#: Steps in the deterministic dirty-slice drift chain.
DIRTY_STEPS = 25

FULL_LENGTH = 40
SMOKE_LENGTH = 20
REPEATS = 5

#: Kernel-only fresh serial builds of the full run: length -> repeats.
LONG_REPEATS = {100: 3, 200: 1}


def make_inputs(length: int):
    """A deep-hierarchy world: subclasses on every third position, big
    cardinalities up front so the Yao estimates hit every regime the
    kernel vectorizes (small-t loop, grouped cumprod, Cardenas)."""
    levels = [
        LevelSpec(f"L{i}", subclasses=(0, 1, 0, 2, 0)[i % 5])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = 400_000
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=objects, distinct=max(10, objects // 6), fanout=1.0
            )
        objects = max(50, objects // 5)
    stats = PathStatistics(path, per_class, CostModelConfig())
    load = LoadDistribution.uniform(path, query=0.3, insert=0.1, delete=0.05)
    return stats, load


def clear_module_caches() -> None:
    """Drop the module-level Yao memo tables (per-statistics evaluation
    memos die with the fresh ``PathStatistics`` object each repeat)."""
    yao._npa_integer.cache_clear()
    yao._npa_pair.cache_clear()


def all_rows(length: int) -> list[tuple[int, int]]:
    """Every subpath ``(start, end)`` of a length-``length`` path."""
    return [
        (start, end)
        for start in range(1, length + 1)
        for end in range(start, length + 1)
    ]


def scalar_rows(stats, load, rows) -> None:
    """Price ``rows`` one at a time through the scalar formulas."""
    for start, end in rows:
        context = SubpathContext.build(stats, load, start, end)
        for organization in EXTENDED_ORGANIZATIONS:
            subpath_processing_cost(
                stats, load, start, end, organization, context=context
            )


def build_columnar(stats, load) -> None:
    CostMatrix.compute(stats, load, include_noindex=True, workers=0)


def build_scalar(stats, load) -> None:
    scalar_rows(stats, load, all_rows(stats.length))


def time_builds(length: int, build, fresh: bool, repeats: int = REPEATS) -> dict:
    """Best/median milliseconds over ``repeats`` serial ``build`` calls."""
    if not fresh:
        warm_inputs = make_inputs(length)
    samples = []
    for _ in range(repeats):
        if fresh:
            stats, load = make_inputs(length)
            clear_module_caches()
        else:
            stats, load = warm_inputs
        started = time.perf_counter()
        build(stats, load)
        samples.append((time.perf_counter() - started) * 1000.0)
    return {
        "best_ms": round(min(samples), 3),
        "median_ms": round(statistics.median(samples), 3),
    }


def time_long_build(length: int, repeats: int) -> dict:
    """Fresh serial kernel builds at ``length``, plus the tracemalloc
    peak of one further (traced, untimed) fresh build."""
    timings = time_builds(length, build_columnar, fresh=True, repeats=repeats)
    stats, load = make_inputs(length)
    clear_module_caches()
    tracemalloc.start()
    try:
        build_columnar(stats, load)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    timings["repeats"] = repeats
    timings["peak_mb"] = round(peak / 2**20, 1)
    return timings


def drift_loads(stats, base_load, steps: int):
    """Deterministic edge drift: the ending classes' query frequencies
    oscillate step by step (the ingest-side what-if pattern), so every
    run re-prices the same dirty-row slices."""
    path = stats.path
    edge = {path.class_at(stats.length), path.class_at(stats.length - 1)}
    loads = []
    current = base_load
    for step in range(1, steps + 1):
        factor = 1.0 + 0.1 * (step % 5)
        triplets = {}
        for name, triplet in current.items():
            if name in edge:
                triplet = LoadTriplet(
                    query=triplet.query * factor + 1e-4,
                    insert=triplet.insert,
                    delete=triplet.delete,
                )
            triplets[name] = triplet
        current = LoadDistribution(path, triplets)
        loads.append(current)
    return loads


def time_dirty_slice(length: int) -> dict:
    """One deterministic recompute chain on the kernel, then the same
    dirty rows priced by the scalar loop: total milliseconds per side
    plus the kernel-slice row counter summed over every step's report."""
    stats, load = make_inputs(length)
    loads = drift_loads(stats, load, DIRTY_STEPS)
    matrix = CostMatrix.compute(stats, load, include_noindex=True, workers=0)
    sliced = 0
    dirty_sets = []
    started = time.perf_counter()
    for step_load in loads:
        matrix = matrix.recompute(load=step_load, workers=0)
        sliced += matrix.recompute_report.kernel_slice_rows
        dirty_sets.append(matrix.recompute_report.recomputed_rows)
    columnar_ms = (time.perf_counter() - started) * 1000.0

    # The scalar side starts warm too: a full scalar build fills the
    # statistics' memo tables the way the kernel build fills its cache.
    stats, load = make_inputs(length)
    loads = drift_loads(stats, load, DIRTY_STEPS)
    build_scalar(stats, load)
    started = time.perf_counter()
    for step_load, rows in zip(loads, dirty_sets):
        scalar_rows(stats, step_load, rows)
    scalar_ms = (time.perf_counter() - started) * 1000.0
    return {
        "scalar": {"total_ms": round(scalar_ms, 3), "steps": DIRTY_STEPS},
        "columnar": {
            "total_ms": round(columnar_ms, 3),
            "steps": DIRTY_STEPS,
            "kernel_slice_rows": sliced,
        },
        "speedup": round(scalar_ms / columnar_ms, 2),
    }


def assert_parity(length: int) -> None:
    """Bit-identity of the kernel and the scalar formulas on this world."""
    stats, load = make_inputs(length)
    columnar = CostMatrix.compute(stats, load, include_noindex=True)
    for start, end in all_rows(length):
        context = SubpathContext.build(stats, load, start, end)
        for organization in columnar.organizations:
            expected = subpath_processing_cost(
                stats, load, start, end, organization, context=context
            ).total
            assert columnar.cost(start, end, organization) == expected, (
                "columnar kernel diverged from the scalar formulas"
            )


def run(smoke: bool) -> dict:
    length = SMOKE_LENGTH if smoke else FULL_LENGTH
    report = {
        "benchmark": "kernel",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "environment": environment_metadata(),
        "length": length,
        "rows": length * (length + 1) // 2,
        "target_speedup": SMOKE_MIN_SPEEDUP if smoke else FULL_TARGET_SPEEDUP,
    }
    assert_parity(length)
    report["parity_checked"] = True
    for regime, fresh in (("fresh", True), ("warm", False)):
        timings = {
            "scalar": time_builds(length, build_scalar, fresh=fresh),
            "columnar": time_builds(length, build_columnar, fresh=fresh),
        }
        timings["speedup"] = round(
            timings["scalar"]["best_ms"] / timings["columnar"]["best_ms"], 2
        )
        report[regime] = timings
    report["dirty_slice"] = time_dirty_slice(length)
    if not smoke:
        report["long"] = {
            str(long_length): time_long_build(long_length, repeats)
            for long_length, repeats in LONG_REPEATS.items()
        }
    return report


def check_smoke(report: dict) -> list[str]:
    """CI guard: the columnar kernel must still beat the scalar loop."""
    failures = []
    speedup = report["fresh"]["speedup"]
    if speedup < SMOKE_MIN_SPEEDUP:
        failures.append(
            f"columnar kernel speedup {speedup:.2f}x on fresh length-"
            f"{report['length']} builds (smoke floor {SMOKE_MIN_SPEEDUP}x)"
        )
    warm = report["warm"]["speedup"]
    if warm < WARM_MIN_SPEEDUP:
        failures.append(
            f"warm-rebuild speedup {warm:.2f}x below the persistent-"
            f"lowering floor ({WARM_MIN_SPEEDUP}x)"
        )
    dirty = report["dirty_slice"]
    if dirty["speedup"] < DIRTY_MIN_SPEEDUP:
        failures.append(
            f"dirty-slice recompute speedup {dirty['speedup']:.2f}x below "
            f"the smoke floor ({DIRTY_MIN_SPEEDUP}x)"
        )
    if dirty["columnar"]["kernel_slice_rows"] == 0:
        failures.append(
            "columnar dirty-slice chain priced zero rows on the kernel"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--json-path",
        default=None,
        help=f"output path (default benchmarks/results/{JSON_NAME})",
    )
    arguments = parser.parse_args(argv)
    report = run(arguments.smoke)
    json_path = (
        pathlib.Path(arguments.json_path)
        if arguments.json_path
        else RESULTS_DIR / JSON_NAME
    )
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {json_path}", file=sys.stderr)
    failures = check_smoke(report) if arguments.smoke else []
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
