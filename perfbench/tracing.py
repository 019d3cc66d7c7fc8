"""Benchmark-side spans around the public calls into each layer.

A :class:`Tracer` keeps spans in memory: ``[name, start, end, parent,
op, attrs]`` with times from :func:`time.perf_counter`; every span of
one op carries that op's id. :func:`instrument` wraps public functions
and methods of the package for the duration of a traced run only and
puts the originals back afterwards; nothing under the package changes.

:func:`layer_split` turns the spans of the traced ops into self times
per layer: a span's self time is its duration minus the time its direct
children cover, so the self times of one op add up to the op's time.
The op's own self time is the part no layer span covers
(``unattributed_ms``).
"""

from __future__ import annotations

import contextlib
import json
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "kernel.lower": "kernel.lower_ms",
    "kernel.fold": "kernel.fold_ms",
    "matrix.build": "matrix.build_ms",
    "matrix.recompute": "matrix.recompute_ms",
    "search": "search.ms",
    "advise.baselines": "advise.baselines_ms",
    "advise": "advise.self_ms",
    "session.apply": "session.apply_ms",
    "session.advise": "session.advise_ms",
    "trace.push": "trace.window_ms",
    "resilience.checkpoint": "resilience.checkpoint_ms",
    "multipath.optimize": "multipath.select_ms",
    "op": "unattributed_ms",
}


class Tracer:
    """In-memory span log; records only while :attr:`active` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def op(self, **attrs):
        """The root span of one op; its child spans share its id."""
        self._op += 1
        self.active = True
        try:
            with self.span("op", **attrs):
                yield self._op
        finally:
            self.active = False

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield
            return
        record = [
            name,
            time.perf_counter(),
            None,
            self._stack[-1] if self._stack else None,
            self._op,
            attrs,
        ]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def discard_op(self, op: int) -> None:
        """Drop the spans of ``op`` (a push that did not re-advise)."""
        while self.spans and self.spans[-1][OP] == op:
            self.spans.pop()

    def write(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            **attrs,
                        }
                    )
                    + "\n"
                )


def _wrap(tracer: Tracer, function, name: str, attrs_of=None):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return function(*args, **kwargs)
        attrs = attrs_of(args) if attrs_of is not None else {}
        with tracer.span(name, **attrs):
            return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the public layer entry points with ``tracer`` spans.

    Covers the kernel's lowering and fold entry points, the matrix build
    and dirty-row recompute, every registered strategy's ``search`` and
    ``refine``, and the what-if session's apply/advise. Calls made
    inside pool worker processes are not seen; their wall time stays in
    the parent's ``matrix.build`` self time.
    """
    import repro.kernel as kernel
    from repro import AdvisorSession, CostMatrix, available_strategies
    from repro import get_strategy

    def strategy_of(args):
        return {"strategy": args[0].name}

    patches = [
        (kernel, "lower", "kernel.lower", None),
        (kernel, "cached_lowering", "kernel.lower", None),
        (kernel, "patch_lowering", "kernel.lower", None),
        (kernel, "compute_rows", "kernel.fold", None),
        (CostMatrix, "recompute", "matrix.recompute", None),
        (AdvisorSession, "apply", "session.apply", None),
        (AdvisorSession, "apply_many", "session.apply", None),
        (AdvisorSession, "advise", "session.advise", None),
    ]
    seen = set()
    for strategy in available_strategies():
        cls = type(get_strategy(strategy))
        for method in ("search", "refine"):
            if (cls, method) not in seen and method in vars(cls):
                seen.add((cls, method))
                patches.append((cls, method, "search", strategy_of))
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in patches]
    saved.append((CostMatrix, "compute", vars(CostMatrix)["compute"]))
    try:
        for owner, attr, name, attrs_of in patches:
            setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, attrs_of))
        build = vars(CostMatrix)["compute"].__func__
        CostMatrix.compute = classmethod(_wrap(tracer, build, "matrix.build"))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_split(tracer: Tracer, main_strategy: str | None = None) -> dict:
    """Per-op self time (ms) per layer over every traced op.

    Searches by a strategy other than ``main_strategy`` inside an
    ``advise`` span are the advisor's baselines. Returns the mean self
    time per op for every metric of :data:`SELF_TIME_METRICS`, plus
    ``op_ms`` (mean traced op time) and ``multipath.matrix_ms`` (matrix
    builds under ``optimize_multipath``, inclusive).
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] is not None:
            child_time[record[PARENT]] += record[END] - record[START]
    totals = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    totals["multipath.matrix_ms"] = 0.0
    op_seconds = 0.0
    ops = set()
    for index, record in enumerate(spans):
        name = record[NAME]
        duration = record[END] - record[START]
        if name == "op":
            op_seconds += duration
            ops.add(record[OP])
        if (
            name == "search"
            and main_strategy is not None
            and record[ATTRS].get("strategy") != main_strategy
        ):
            name = "advise.baselines"
        totals[SELF_TIME_METRICS[name]] += duration - child_time[index]
        parent = record[PARENT]
        if (
            name == "matrix.build"
            and parent is not None
            and spans[parent][NAME] == "multipath.optimize"
        ):
            totals["multipath.matrix_ms"] += duration
    count = max(1, len(ops))
    split = {key: 1000.0 * value / count for key, value in totals.items()}
    split["op_ms"] = 1000.0 * op_seconds / count
    return split
