"""Run one benchmark workload as a closed loop and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload advise-short --seed 1 --seconds 28 --trace 0

One client in one process sends each call only after the previous one
returned, for a window of ``--seconds`` of wall time. Inputs come only
from ``--seed``. Every op's output is checked outside the timed region.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
on twin inputs, once plain and once under benchmark-side spans and a
:class:`repro.obs.Recorder`, and prints the per-layer split. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every check passed. Results and spans are also written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = HERE / "results"

#: Cold set-ups per run, each in a fresh process; ``setup_s`` reports
#: their median.
SETUP_REPS = 3

#: Replay events whose recorder counts make up the count metrics.
REPLAY_COUNT_EVENTS = 12000

#: Metrics printed with ``--trace 1``, in order, with their units.
PER_LAYER_UNITS = {
    "kernel.lower_ms": "ms",
    "kernel.fold_ms": "ms",
    "matrix.build_ms": "ms",
    "matrix.recompute_ms": "ms",
    "search.ms": "ms",
    "advise.baselines_ms": "ms",
    "advise.self_ms": "ms",
    "session.apply_ms": "ms",
    "session.advise_ms": "ms",
    "trace.window_ms": "ms",
    "resilience.checkpoint_ms": "ms",
    "multipath.select_ms": "ms",
    "multipath.matrix_ms": "ms",
    "unattributed_ms": "ms",
    "traced_op_ms": "ms",
    "obs.trace_overhead": "ratio",
    "trace.ingest_us_per_event": "us",
    "kernel.lowering_cache.misses": "count",
    "matrix.rows_priced": "count",
    "matrix.recompute.rows_repriced": "count",
    "matrix.recompute.rows_patched": "count",
    "matrix.recompute.kernel_slice_rows": "count",
    "matrix.recompute.dirty_share": "ratio",
    "search.evaluated": "count",
    "search.pruned": "count",
    "search.rows_inspected": "count",
    "whatif.batched_steps": "count",
    "replay.readvises": "count",
    "replay.windows": "count",
    "trace.readvise_share": "ratio",
    "resilience.checkpoint_kb": "KiB",
    "multipath.exact_share": "ratio",
}

COUNTERS = (
    "kernel.lowering_cache.misses",
    "matrix.rows_priced",
    "matrix.recompute.rows_repriced",
    "matrix.recompute.rows_patched",
    "matrix.recompute.kernel_slice_rows",
    "matrix.recomputes",
    "search.evaluated",
    "search.pruned",
    "search.rows_inspected",
    "whatif.batched_steps",
    "replay.readvises",
    "replay.windows",
)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any pool child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def counter_totals(recorder) -> dict:
    """Recorder counters summed over their labels, by dotted name."""
    totals = dict.fromkeys(COUNTERS, 0)
    for key, value in recorder.metrics.snapshot()["counters"].items():
        name = key.split("{", 1)[0]
        if name in totals:
            totals[name] += value
    return totals


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without a subprocess."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Run:
    """What one run measured: op latencies, checks, and traced extras."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.events = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.ratios: list[float] = []
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.extra: dict = {}

    def record(self, problems: list[str], ratio: float | None = None) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))
        if ratio is not None:
            self.ratios.append(ratio)


def guarded(function, *args) -> tuple:
    """``(result, [])``, or ``(None, [message])`` when ``function`` raises.

    An op or check that raises fails that op instead of the whole run.
    """
    try:
        return function(*args), []
    except Exception as error:  # the op boundary: record and keep going
        return None, [f"{type(error).__name__}: {error}"]


def timed_call(workload, inputs, tracer=None, recorder=None):
    started = time.perf_counter()
    if tracer is None:
        result = workload.call(inputs)
    else:
        with tracer.span(workload.span_name):
            result = workload.call(inputs, recorder)
    return result, time.perf_counter() - started


def another_round(started: float, rounds: int, seconds: float) -> bool:
    """Whether to start another whole round of a ``seconds`` window.

    A round is started when, at the mean round's pace so far, it would
    end less than half a round after the window closes; runs then end
    about ``seconds`` after ``started``, whatever a round costs.
    """
    if rounds == 0:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_requests(workload, seconds: float, tracer=None, recorder=None) -> Run:
    """Closed loop over whole rounds of request ops for a window of
    ``seconds`` of wall time, checks included.

    Traced: each op index runs on twin inputs, plain and traced, the
    order alternating, so ``obs.trace_overhead`` compares the same work.
    Count metrics are the recorder's deltas over the first round.
    """
    run = Run()
    index = 0
    long_fleets = exact = 0
    counts_before = counter_totals(recorder) if recorder is not None else None
    started = time.perf_counter()
    while another_round(started, index // workload.round_size, seconds):
        for _ in range(workload.round_size):
            twins = [False] if tracer is None else [False, True]
            if index % 2:
                twins.reverse()
            for traced in twins:
                inputs = workload.make(index)
                if traced:
                    with tracer.op(index=index):
                        outcome, problems = guarded(
                            timed_call, workload, inputs, tracer, recorder
                        )
                else:
                    outcome, problems = guarded(timed_call, workload, inputs)
                if problems:
                    run.record(problems)
                    continue
                result, seconds_taken = outcome
                if traced:
                    run.traced_s += seconds_taken
                    if inputs.get("kind") in ("beam", "budget"):
                        long_fleets += 1
                        exact += bool(result.exact)
                else:
                    run.plain_s += seconds_taken
                    run.latencies.append(seconds_taken)
                    run.busy_s += seconds_taken
                    run.events += 1
                checked, problems = guarded(workload.check, inputs, result)
                if checked is not None:
                    run.record(*checked)
                else:
                    run.record(problems)
                # The check's garbage is collected here, not in the next op.
                gc.collect()
            index += 1
        if recorder is not None and index == workload.round_size:
            after = counter_totals(recorder)
            run.extra["counts"] = {k: after[k] - counts_before[k] for k in after}
    if long_fleets:
        run.extra["multipath.exact_share"] = exact / long_fleets
    return run


def run_replay(workload, seconds: float, tracer=None, recorder=None) -> Run:
    """Closed loop of pushes into one advisor (two twins when traced) for
    a window of ``seconds`` of wall time, and at least the events the
    count metrics cover."""
    run = Run()
    plain_world = workload.make_world()
    twins = [(workload.make_advisor(plain_world), plain_world, "plain", False)]
    if tracer is not None:
        traced_world = workload.make_world()
        twins.append(
            (workload.make_advisor(traced_world, recorder), traced_world, "traced", True)
        )
    counts_before = counter_totals(recorder) if recorder is not None else None
    events = workload.stream(plain_world[0].path)
    window_start = time.perf_counter()
    ingest_s = 0.0
    ingest = 0
    readvises = {tag: 0 for _, _, tag, _ in twins}
    checkpoint_bytes: list[int] = []
    pushed = 0
    while True:
        event = next(events)
        order = twins if pushed % 2 == 0 else twins[::-1]
        for advisor, world, tag, traced in order:
            if traced:
                with tracer.op() as op:
                    started = time.perf_counter()
                    with tracer.span("trace.push"):
                        step = advisor.push(event)
                    due = step is not None and (readvises[tag] + 1) % workload.CHECKPOINT_EVERY == 0
                    if due:
                        with tracer.span("resilience.checkpoint"):
                            size = workload.checkpoint(advisor, tag)
                    taken = time.perf_counter() - started
                if step is None:
                    tracer.discard_op(op)
                    continue
                run.traced_s += taken
                if due and pushed < REPLAY_COUNT_EVENTS:
                    checkpoint_bytes.append(size)
            else:
                started = time.perf_counter()
                step = advisor.push(event)
                due = step is not None and (readvises[tag] + 1) % workload.CHECKPOINT_EVERY == 0
                if due:
                    workload.checkpoint(advisor, tag)
                taken = time.perf_counter() - started
                run.busy_s += taken
                if step is None:
                    ingest_s += taken
                    ingest += 1
                    continue
                run.plain_s += taken
                run.latencies.append(taken)
            readvises[tag] += 1
            problems = []
            if due:
                restored, failed = guarded(workload.check_checkpoint, advisor, world, tag)
                problems += restored or failed
                gc.collect()
            run.record(problems)
        pushed += 1
        run.events = pushed
        if recorder is not None and pushed == REPLAY_COUNT_EVENTS:
            after = counter_totals(recorder)
            run.extra["counts"] = {k: after[k] - counts_before[k] for k in after}
        if (
            pushed >= REPLAY_COUNT_EVENTS
            and pushed % 200 == 0
            and time.perf_counter() - window_start >= seconds
        ):
            break
    for advisor, _world, _tag, _traced in twins:
        checked, problems = guarded(workload.check_answer, advisor)
        if checked is not None:
            run.record(*checked)
        else:
            run.record(problems)
    run.extra["trace.ingest_us_per_event"] = 1e6 * ingest_s / max(1, ingest)
    run.extra["resilience.checkpoint_kb"] = (
        statistics.fmean(checkpoint_bytes) / 1024.0 if checkpoint_bytes else 0.0
    )
    run.extra["held_rows"] = workload.LENGTH * (workload.LENGTH + 1) // 2
    return run


def make_workload(name: str, seed: int):
    from perfbench import workloads

    if name == "advise-short":
        return workloads.advise_short(seed)
    if name == "advise-long":
        return workloads.advise_long(seed)
    if name == "multipath-fleet":
        return workloads.MultipathWorkload(seed)
    if name == "replay-stream":
        RESULTS_DIR.mkdir(exist_ok=True)
        return workloads.ReplayWorkload(seed, str(RESULTS_DIR))
    raise SystemExit(f"unknown workload {name!r}; expected one of {workloads.WORKLOADS}")


def set_up_once(workload, rep: int, ready=None) -> None:
    """Input generation and one warm-up op, then the op's check.

    ``ready`` is called between the op and its check, so a caller timing
    the set-up leaves the check out.
    """
    if workload.name == "replay-stream":
        world = workload.make_world()
        advisor = workload.make_advisor(world)
        stream = workload.stream(world[0].path)
        for _ in range(workload.OPTIONS["window"]):
            advisor.push(next(stream))
        if ready is not None:
            ready()
        return
    inputs = workload.warm_up_input(rep)
    result = workload.call(inputs)
    if ready is not None:
        ready()
    problems, _ratio = workload.check(inputs, result)
    if problems:
        raise RuntimeError(f"warm-up op failed its check: {problems}")


def cold_setup_s(workload: str, seed: int, rep: int) -> float:
    """Wall seconds from starting a fresh interpreter until it has imported
    the program, generated its inputs and run one warm-up op.

    The child is ``setup_probe.py``; it reports ``ready`` before checking
    the op, and this waits for it to exit.
    """
    started = time.perf_counter()
    with subprocess.Popen(
        [
            sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
            "--seed", str(seed), "--rep", str(rep),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        taken = time.perf_counter() - started
        _rest, errors = child.communicate(timeout=150)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"cold set-up {rep} failed: {errors.strip()[-500:]}")
    return taken


def end_to_end(run: Run, setup_s: float, peak_rss: float) -> dict:
    deciles = statistics.quantiles(run.latencies, n=10, method="inclusive")
    return {
        "latency_p50_ms": (1000.0 * statistics.median(run.latencies), "ms"),
        "latency_p90_ms": (1000.0 * deciles[8], "ms"),
        "events_per_s": (run.events / run.busy_s, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (setup_s, "s"),
        "joint_cost_ratio": (statistics.fmean(run.ratios), "ratio"),
    }


def per_layer(run: Run, tracer, main_strategy) -> dict:
    from perfbench.tracing import layer_split

    split = layer_split(tracer, main_strategy)
    counts = run.extra.get("counts", dict.fromkeys(COUNTERS, 0))
    values = dict(split)
    values["traced_op_ms"] = values.pop("op_ms")
    values["obs.trace_overhead"] = run.traced_s / run.plain_s - 1.0
    values["trace.ingest_us_per_event"] = run.extra.get("trace.ingest_us_per_event", 0.0)
    for name in COUNTERS:
        values[name] = counts[name]
    held = counts["matrix.recomputes"] * run.extra.get("held_rows", 0)
    values["matrix.recompute.dirty_share"] = (
        counts["matrix.recompute.rows_repriced"] / held if held else 0.0
    )
    values["trace.readvise_share"] = (
        counts["replay.readvises"] / counts["replay.windows"]
        if counts["replay.windows"]
        else 0.0
    )
    values["resilience.checkpoint_kb"] = run.extra.get("resilience.checkpoint_kb", 0.0)
    values["multipath.exact_share"] = run.extra.get("multipath.exact_share", 0.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> str | None:
    """Import the program from this checkout's ``src``; an error message
    when that is not possible."""
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        import repro
        import benchmarks.env_meta  # noqa: F401
    except ImportError as error:
        return f"the program under test is not importable: {error}"
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        return f"repro imported from outside this checkout: {repro.__file__}"
    return None


def main(argv=None) -> int:
    arguments = parse_args(argv)
    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from benchmarks.env_meta import environment_metadata
    from repro.obs import Recorder

    from perfbench.tracing import Tracer, instrument

    workload = make_workload(arguments.workload, arguments.seed)
    try:
        set_up_once(workload, 0)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    runner = run_replay if workload.name == "replay-stream" else run_requests
    tracer = None
    setups: list[float] = []
    if arguments.trace:
        tracer = Tracer()
        with instrument(tracer):
            run = runner(workload, arguments.seconds, tracer, Recorder())
        metrics = per_layer(run, tracer, workload.main_strategy)
    else:
        run = runner(workload, arguments.seconds)
        # Read before the set-up children exist, so it is the workload's.
        peak_rss = peak_rss_mb()
        try:
            setups = [
                cold_setup_s(workload.name, arguments.seed, rep) for rep in range(SETUP_REPS)
            ]
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        metrics = end_to_end(run, statistics.median(setups), peak_rss)

    failed = len(run.failures)
    stamp = {
        "workload": workload.name,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "commit": commit_id(),
        "environment": environment_metadata(),
        "ops": len(run.latencies),
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / max(1, run.attempted),
        "setup_reps_s": setups,
        "latencies_ms": [round(1000.0 * value, 3) for value in run.latencies],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "failures": run.failures[:20],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{arguments.seed}-trace{arguments.trace}"
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(stamp, indent=2) + "\n")
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"{tag}.spans.jsonl")

    print(f"# {workload.name} seed={arguments.seed} commit={stamp['commit'][:12]} "
          f"ops={len(run.latencies)} attempted={run.attempted} failed={failed}")
    print(f"error_rate {stamp['error_rate']:.6f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in run.failures[:5]:
        print(f"# check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": stamp["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
