"""Seeded benchmark inputs: single-path worlds, drift streams and fleets.

Every input is drawn from a :class:`random.Random` the caller seeds, and
built only through the package's public generators: schemas from
:mod:`repro.synth`, workloads from :class:`repro.WorkloadGenerator` and
operation streams from :func:`repro.generate_trace`. The same seed gives
the same worlds, loads and events, so the program under test sees only
generated inputs and every count it reports repeats exactly.
"""

from __future__ import annotations

import dataclasses
import random

from repro import ClassStats, Path, PathStatistics, PathWorkload
from repro import WorkloadGenerator, generate_trace
from repro.synth import LevelSpec, linear_path_schema


def _class_stats(rng: random.Random, objects: float, multi_valued: bool) -> ClassStats:
    fanout = rng.choice((1.5, 2.0, 3.0, 4.0)) if multi_valued else 1.0
    sharing = rng.choice((1.0, 2.0, 5.0, 20.0))
    distinct = max(1, int(objects * fanout / sharing))
    return ClassStats(objects=objects, distinct=distinct, fanout=fanout)


def path_world(rng: random.Random, length: int) -> tuple[PathStatistics, object]:
    """One fresh (statistics, load) pair for a path of ``length`` classes.

    Subclass layouts, set-valued levels, cardinality decay and the
    query/update mix all vary with ``rng``.
    """
    levels = [
        LevelSpec(
            f"C{i}",
            subclasses=rng.choice((0, 0, 0, 1, 2)),
            multi_valued=rng.random() < 0.2,
        )
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = rng.uniform(1e5, 5e5)
    for position, spec in enumerate(levels, start=1):
        for member in path.hierarchy_at(position):
            scale = 1.0 if member == spec.name else rng.uniform(0.05, 0.5)
            per_class[member] = _class_stats(
                rng, max(50.0, round(objects * scale)), spec.multi_valued
            )
        objects = max(50.0, objects / rng.uniform(1.3, 4.0))
    stats = PathStatistics(path, per_class)
    load = WorkloadGenerator(rng.randrange(2**31)).mixed(
        path,
        query_weight=rng.choice((1.0, 2.0, 4.0)),
        update_weight=rng.choice((0.5, 1.0, 2.0)),
    )
    return stats, load


def drift_stream(
    rng: random.Random, path: Path, segments: int, segment_events: int
) -> list:
    """Events alternating ``edge_drift`` (edge share 1.0) and ``mixed_drift``.

    Every other option is :func:`repro.generate_trace`'s default, as in the
    command-line ``replay``. Timestamps are shifted so the concatenated
    stream stays monotone.
    """
    events = []
    offset = 0.0
    for index in range(segments):
        seed = rng.randrange(2**31)
        if index % 2 == 0:
            segment = generate_trace(path, "edge_drift", segment_events, seed=seed, edge_share=1.0)
        else:
            segment = generate_trace(path, "mixed_drift", segment_events, seed=seed)
        events.extend(
            dataclasses.replace(event, timestamp=event.timestamp + offset)
            for event in segment
        )
        offset = events[-1].timestamp
    return events


def chain_fleet(rng: random.Random, lengths: list[int]) -> list[PathWorkload]:
    """Suffix paths of one seeded chain, one per entry of ``lengths``.

    The chain is as long as the longest path; each path is the suffix of
    the given length, so every pair of paths shares its tail.
    """
    chain = max(lengths)
    levels = [
        LevelSpec(f"F{i}", subclasses=rng.choice((0, 0, 1))) for i in range(chain)
    ]
    schema, full = linear_path_schema(levels)
    per_class = {}
    objects = rng.uniform(1e5, 3e5)
    for position in range(1, chain + 1):
        for member in full.hierarchy_at(position):
            per_class[member] = _class_stats(rng, round(objects), False)
        objects = max(100.0, objects / rng.uniform(1.2, 1.8))
    loads = WorkloadGenerator(rng.randrange(2**31))
    fleet = []
    for length in lengths:
        start = chain - length
        expression = ".".join(
            [f"F{start}"] + [f"ref{i}" for i in range(start + 1, chain)] + ["label"]
        )
        path = full if start == 0 else Path.parse(schema, expression)
        stats = PathStatistics(path, {name: per_class[name] for name in path.scope})
        fleet.append(PathWorkload(stats=stats, load=loads.mixed(path)))
    return fleet
