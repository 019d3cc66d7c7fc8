"""The four benchmark workloads: inputs, the timed call, and its checks.

Request workloads (``advise-short``, ``advise-long``, ``multipath-fleet``)
run a closed loop of ops in fixed rounds; op ``i`` draws fresh inputs
from ``Random(f"{seed}/{i}")``, so one seed always gives the same op
sequence. ``replay-stream`` is one long-lived
:class:`~repro.ContinuousAdvisor` fed a seeded stream; its ops are the
pushes that caused a re-advise.

Each op's output is checked outside the timed region; a failed check is
returned as a message and counted by the runner.
"""

from __future__ import annotations

import os
import random

from repro import DEFAULT_STRATEGY, ContinuousAdvisor, CostMatrix, PathStatistics
from repro import advise, get_strategy
from repro import optimize_multipath, subpath_processing_cost
from repro.organizations import CONFIGURABLE_ORGANIZATIONS, EXTENDED_ORGANIZATIONS
from repro.resilience import restore_advisor, save_advisor

from perfbench.worlds import chain_fleet, drift_stream, path_world

#: Relative slack for comparing sums of the same block costs added in
#: another order: branch and bound, exhaustive enumeration and the DP
#: reach one optimum but may differ from each other in the last bits.
SUM_TOLERANCE = 1e-9

#: Matrix rows per op re-priced by the scalar oracle, every organization.
ORACLE_ROWS = 2


def _op_rng(seed: int, index: int | str) -> random.Random:
    return random.Random(f"{seed}/{index}")


def detached(stats: PathStatistics) -> PathStatistics:
    """Equal statistics in a new object, so a check run on them leaves
    the lowering cache kept on the live object untouched."""
    members = {name: stats.stats_of(name) for name in stats.path.scope}
    return PathStatistics(stats.path, members, stats.config)


def oracle_mismatches(rng, matrix, stats, load, range_selectivity=None) -> list[str]:
    """Sampled matrix rows that differ from the scalar cost model.

    Compares bit for bit against
    :func:`repro.subpath_processing_cost`, the paper's formulas the
    kernel must reproduce exactly, evaluated on a detached copy so no
    memo the op filled is reused.
    """
    stats = detached(stats)
    problems = []
    for _ in range(ORACLE_ROWS):
        start = rng.randint(1, matrix.length)
        end = rng.randint(start, matrix.length)
        for organization in matrix.organizations:
            expected = subpath_processing_cost(
                stats, load, start, end, organization,
                range_selectivity=range_selectivity,
            ).total
            got = matrix.cost(start, end, organization)
            if got != expected:
                problems.append(
                    f"row ({start},{end}) {organization}: {got!r} != oracle {expected!r}"
                )
    return problems


class AdviseWorkload:
    """``advise`` on a fresh seeded world per op, lengths in fixed rounds.

    ``schedule`` is one round of ``(length, range)`` slots; a slot with
    ``range`` set prices range predicates at a seeded selectivity. Whole
    rounds keep the op mix the same in every run, and five slots put the
    median and the 90th percentile inside one slot's group of ops rather
    than between two.
    """

    span_name = "advise"

    def __init__(self, seed: int, name: str, schedule, options: dict):
        self.seed = seed
        self.name = name
        self.schedule = tuple(schedule)
        self.options = options
        self.main_strategy = options.get("strategy", DEFAULT_STRATEGY)
        self.round_size = len(self.schedule)

    def make(self, index: int, slot: int | None = None):
        rng = _op_rng(self.seed, index)
        length, ranged = self.schedule[index % self.round_size if slot is None else slot]
        stats, load = path_world(rng, length)
        selectivity = rng.choice((0.01, 0.05, 0.2)) if ranged else None
        return {"stats": stats, "load": load, "range": selectivity, "rng": rng}

    def warm_up_input(self, rep: int):
        return self.make(-1 - rep, slot=0)

    def call(self, inputs, recorder=None):
        options = dict(self.options)
        if inputs["range"] is not None:
            options["range_selectivity"] = inputs["range"]
        if recorder is not None:
            options["recorder"] = recorder
        return advise(inputs["stats"], inputs["load"], **options)

    def check(self, inputs, report) -> tuple[list[str], float]:
        """The answer against the DP baseline, and against checks that do
        not go through the requested strategy at all.

        When the requested strategy is the DP, ``report.dynprog`` is the
        answer itself, so the answer's blocks are also re-summed from the
        matrix, and no other answer on the same matrix (greedy beam, the
        whole-path single indexes, exhaustive where it runs) may cost less.
        """
        problems = []
        optimal = report.optimal
        optimum = report.dynprog.cost
        for label, result in (("optimal", optimal), ("exhaustive", report.exhaustive)):
            if result is not None and abs(result.cost - optimum) > SUM_TOLERANCE * optimum:
                problems.append(f"{label} cost {result.cost!r} != DP optimum {optimum!r}")
        matrix = report.matrix
        blocks = optimal.configuration.assignments
        if blocks[-1].end != matrix.length:
            problems.append(f"answer covers 1..{blocks[-1].end} of {matrix.length}")
        resummed = sum(matrix.cost(b.start, b.end, b.organization) for b in blocks)
        if abs(resummed - optimal.cost) > SUM_TOLERANCE * optimal.cost:
            problems.append(f"answer cost {optimal.cost!r} != its blocks' sum {resummed!r}")
        rivals = {"greedy_beam": get_strategy("greedy_beam").search(matrix).cost}
        rivals.update(
            (f"whole path {organization}", cost)
            for organization, cost in report.single_index_costs.items()
        )
        for label, cost in rivals.items():
            if optimal.cost > cost * (1.0 + SUM_TOLERANCE):
                problems.append(f"answer cost {optimal.cost!r} > {label} {cost!r}")
        problems += oracle_mismatches(
            inputs["rng"], report.matrix, inputs["stats"], inputs["load"], inputs["range"]
        )
        return problems, report.optimal.cost / optimum


def advise_short(seed: int) -> AdviseWorkload:
    """Library defaults (branch and bound, baselines on) on short paths.

    Lengths stop at 16: beyond it the branch-and-bound time of one op
    spans 40 ms to 2.3 s between seeded worlds, which no run-length
    median here could steady.
    """
    schedule = [(length, False) for length in (12, 13, 14, 15, 16)]
    return AdviseWorkload(seed, "advise-short", schedule, {})


def advise_long(seed: int) -> AdviseWorkload:
    """The exact DP with the no-index option on long paths.

    The L=100 slot prices range predicates, so the 90th percentile
    measures the range path at the longest length.
    """
    schedule = [(40, False), (60, False), (60, False), (80, False), (100, True)]
    return AdviseWorkload(
        seed,
        "advise-long",
        schedule,
        {"strategy": "dynamic_program", "include_noindex": True},
    )


class MultipathWorkload:
    """``optimize_multipath`` over fleets of suffix paths of one chain.

    A round is three calls: two short paths (exact enumeration), a beam
    fleet of :data:`BEAM_PATHS` long paths, and the same fleet again
    under a storage budget of :data:`BUDGET_SHARE` of its unconstrained
    storage. Budgeted calls may leave subpaths unindexed (``NONE``), so
    every budget is feasible. Four beam paths would switch the joint stage to enumerating
    the 16^4 beam cross product (about 3x slower), so the path count is
    fixed rather than drawn.
    """

    name = "multipath-fleet"
    span_name = "multipath.optimize"
    main_strategy = None
    round_size = 3
    BUDGET_SHARE = 0.6
    BEAM_PATHS = 6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._budget_base: dict[int, float] = {}

    def make(self, index: int, kind: str | None = None):
        kind = kind or ("exact", "beam", "budget")[index % 3]
        fleet_index = index - 1 if kind == "budget" else index
        rng = _op_rng(self.seed, fleet_index)
        if kind == "exact":
            lengths = [6, 5]
        else:
            lengths = sorted(rng.sample(range(24, 39), self.BEAM_PATHS), reverse=True)
        inputs = {
            "kind": kind,
            "fleet": chain_fleet(rng, lengths),
            "budget": None,
            "organizations": CONFIGURABLE_ORGANIZATIONS,
        }
        if kind == "budget":
            inputs["budget"] = self.BUDGET_SHARE * self._budget_base[fleet_index]
            inputs["organizations"] = EXTENDED_ORGANIZATIONS
        inputs["index"] = index
        return inputs

    def warm_up_input(self, rep: int):
        return self.make(-1 - rep, kind="exact")

    def call(self, inputs, recorder=None):
        return optimize_multipath(
            inputs["fleet"],
            organizations=inputs["organizations"],
            budget_pages=inputs["budget"],
            recorder=recorder,
        )

    def check(self, inputs, result) -> tuple[list[str], float]:
        problems = []
        optimum = 0.0
        dp = get_strategy("dynamic_program")
        for workload in inputs["fleet"]:
            matrix = CostMatrix.compute(
                workload.stats, workload.load, organizations=inputs["organizations"]
            )
            optimum += dp.search(matrix).cost
        slack = optimum * (1.0 + SUM_TOLERANCE)
        kind = inputs["kind"]
        if kind == "budget":
            if result.storage_pages > inputs["budget"]:
                problems.append(
                    f"storage {result.storage_pages!r} over budget {inputs['budget']!r}"
                )
            if result.unconstrained_cost > slack:
                problems.append(
                    f"unconstrained cost {result.unconstrained_cost!r} > "
                    f"sum of per-path optima {optimum!r}"
                )
        else:
            if result.total_cost > slack:
                problems.append(
                    f"joint cost {result.total_cost!r} > sum of per-path optima {optimum!r}"
                )
            self._budget_base[inputs["index"]] = result.storage_pages
        if kind == "exact" and not result.exact:
            problems.append("two short paths did not select exactly")
        # A budgeted cost measures how tight the budget is, not how good
        # the joint selection is; only unconstrained calls enter the ratio.
        return problems, None if kind == "budget" else result.total_cost / optimum


class ReplayWorkload:
    """One :class:`~repro.ContinuousAdvisor` at L=40 on a drift stream.

    CLI replay defaults: count window 200, threshold 0.2, hysteresis 2,
    no statistics tracking, the incremental DP. The stream alternates
    ``edge_drift`` and ``mixed_drift`` segments and is generated segment
    by segment as the loop consumes it. Every
    :data:`CHECKPOINT_EVERY`-th re-advise also saves a checkpoint.
    """

    name = "replay-stream"
    main_strategy = "incremental_dynamic_program"
    LENGTH = 40
    SEGMENT_EVENTS = 2000
    CHECKPOINT_EVERY = 25
    OPTIONS = {"window": 200, "threshold": 0.2, "hysteresis": 2, "track_statistics": False}
    SESSION_OPTIONS = {"strategy": "incremental_dynamic_program"}

    def __init__(self, seed: int, checkpoint_dir: str) -> None:
        self.seed = seed
        self.checkpoint_dir = checkpoint_dir

    def make_world(self):
        """The advisor's baseline world, the same for every seed.

        One world serves a whole run, so a seeded world would make its
        shape, not the program, set a run's latency; the seed drives the
        stream instead.
        """
        return path_world(random.Random("replay-world"), self.LENGTH)

    def make_advisor(self, world, recorder=None) -> ContinuousAdvisor:
        stats, load = world
        return ContinuousAdvisor(
            stats, load, recorder=recorder, **self.OPTIONS, **self.SESSION_OPTIONS
        )

    def stream(self, path):
        """Endless seeded events, one segment at a time."""
        rng = _op_rng(self.seed, "stream")
        while True:
            yield from drift_stream(rng, path, 2, self.SEGMENT_EVENTS // 2)

    def checkpoint_path(self, tag: str) -> str:
        return os.path.join(self.checkpoint_dir, f"replay-{tag}.ckpt.jsonl")

    def checkpoint(self, advisor, tag: str) -> int:
        return save_advisor(advisor, self.checkpoint_path(tag))

    def check_checkpoint(self, advisor, world, tag: str) -> list[str]:
        stats, load = world
        restored = restore_advisor(
            self.checkpoint_path(tag), detached(stats), load, **self.SESSION_OPTIONS
        )
        problems = []
        if restored.events_seen != advisor.events_seen:
            problems.append("restored checkpoint lost events")
        if restored.steps[-1].result.cost != advisor.steps[-1].result.cost:
            problems.append("restored checkpoint answers differently")
        return problems

    def check_answer(self, advisor) -> tuple[list[str], float]:
        session = advisor.session
        fresh = get_strategy("dynamic_program").search(
            CostMatrix.compute(detached(session.stats), session.load)
        )
        answer = advisor.steps[-1].result
        problems = []
        if answer.cost != fresh.cost or answer.configuration != fresh.configuration:
            problems.append(
                f"session answer {answer.cost!r} != fresh DP {fresh.cost!r}"
            )
        return problems, answer.cost / fresh.cost


WORKLOADS = ("advise-short", "advise-long", "replay-stream", "multipath-fleet")
