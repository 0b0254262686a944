"""Span-based telemetry layered on the simulator clock.

The paper's whole evaluation (Fig. 4-6, the message-count table) is a set
of timing decompositions of checkpoint rounds. Flat trace records cannot
express "how long did node2 spend in the Fig. 4 serialize window of epoch
7" — nested, labelled spans can:

* :class:`SpanRecorder` records :class:`Span` intervals against a clock
  (the simulator's ``now``). Spans carry a ``node``, arbitrary attributes
  (``epoch``, ``pod`` ...), and parent/child links maintained by a
  per-node ambient stack (or an explicit ``parent=``).
* :class:`MetricsRegistry` holds typed metrics — :class:`CounterMetric`,
  :class:`GaugeMetric`, :class:`HistogramMetric` — replacing the ad-hoc
  counter dicts that used to live on :class:`repro.sim.trace.Trace`.
* Exporters: :meth:`SpanRecorder.to_chrome` emits Chrome ``trace_event``
  JSON (loadable in Perfetto / ``chrome://tracing``);
  :meth:`SpanRecorder.summary_rows` emits a flat per-span-name table.

The span taxonomy used by the Cruz instrumentation is documented in
``docs/OBSERVABILITY.md``; the round state machine in ``docs/PROTOCOL.md``
cross-references each protocol step to its span name.

Recording never touches the event queue or the random streams, so an
instrumented run is event-for-event identical to an uninstrumented one —
the Fig. 5 regression test asserts this bit-for-bit.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Span kinds: an interval with a start and an end, or a point event.
SPAN = "span"
INSTANT = "instant"


class Span:
    """One labelled interval (or instant) on a node's timeline."""

    __slots__ = ("span_id", "parent_id", "name", "node", "start", "end",
                 "attrs", "kind")

    def __init__(self, span_id: int, name: str, node: str, start: float,
                 kind: str = SPAN, attrs: Optional[Dict[str, Any]] = None):
        self.span_id = span_id
        self.parent_id: Optional[int] = None
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = start if kind == INSTANT else None
        self.attrs: Dict[str, Any] = attrs or {}
        self.kind = kind

    @property
    def is_open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is still open)."""
        return (self.end if self.end is not None else self.start) - \
            self.start

    def __repr__(self) -> str:
        state = "open" if self.is_open else f"{self.duration:.6f}s"
        return f"<Span {self.name} @{self.node} {state} {self.attrs}>"


class _SpanContext:
    """``with recorder.span(...)`` support."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "SpanRecorder", span: Span):
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder.end(self.span)


class SpanRecorder:
    """Append-only span store with ambient per-node parenting.

    ``begin`` opens a span and (by default) pushes it on the node's
    ambient stack, so spans opened afterwards on the same node become its
    children; ``end`` closes it, removing it from the stack wherever it
    sits (concurrent simulation processes may close out of LIFO order)
    and closing any descendants left open. When ``enabled`` is false no
    span is retained — queries return nothing and exports are empty — but
    ``begin``/``end`` still hand back usable Span objects so callers can
    measure without guarding.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.enabled = enabled
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._children: Dict[int, List[Span]] = {}
        self._stacks: Dict[str, List[Span]] = {}
        self._next_id = 1

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Bind the recorder to a time source (the simulator's ``now``)."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, node: str = "",
              parent: Optional[Span] = None, attach: bool = True,
              orphan: bool = False, **attrs: Any) -> Span:
        """Open a span. ``attach=False`` keeps it off the ambient stack
        (its children must name it via ``parent=`` explicitly) — used for
        waits that overlap concurrent work on the same node.
        ``orphan=True`` additionally refuses the ambient stack top as an
        implicit parent: the span is a root even if unrelated work is
        open on the same node — otherwise closing that unrelated span
        would cascade-close this one (``end`` closes open descendants)."""
        span = Span(self._next_id, name, node, self._clock(), attrs=attrs)
        self._next_id += 1
        if not self.enabled:
            return span
        stack = self._stacks.setdefault(node, [])
        if parent is None and not orphan and stack:
            parent = stack[-1]
        if parent is not None:
            span.parent_id = parent.span_id
            self._children.setdefault(parent.span_id, []).append(span)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        if attach:
            stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close a span (idempotent); closes any still-open descendants
        at the same timestamp and merges ``attrs`` into the span."""
        if attrs:
            span.attrs.update(attrs)
        if span.end is not None:
            return span
        when = self._clock()
        span.end = when
        for child in self._children.get(span.span_id, ()):
            if child.is_open:
                self.end(child)
        stack = self._stacks.get(span.node)
        if stack is not None:
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is span:
                    del stack[index]
                    break
        return span

    def span(self, name: str, node: str = "",
             parent: Optional[Span] = None, attach: bool = True,
             **attrs: Any) -> _SpanContext:
        """Context manager: ``with spans.span("serialize", node=...):``."""
        return _SpanContext(
            self, self.begin(name, node=node, parent=parent,
                             attach=attach, **attrs))

    def instant(self, name: str, node: str = "", **attrs: Any) -> Span:
        """Record a zero-duration point event (never on the stack)."""
        span = Span(self._next_id, name, node, self._clock(),
                    kind=INSTANT, attrs=attrs)
        self._next_id += 1
        if self.enabled:
            stack = self._stacks.get(node)
            if stack:
                span.parent_id = stack[-1].span_id
                self._children.setdefault(span.parent_id, []).append(span)
            self.spans.append(span)
            self._by_id[span.span_id] = span
        return span

    def current(self, node: str = "") -> Optional[Span]:
        """The innermost open span on ``node``'s ambient stack, or None.

        The runtime sanitizer uses this to annotate each violation with
        the phase it fired inside (e.g. ``agent.local[epoch=3]``).
        """
        stack = self._stacks.get(node)
        return stack[-1] if stack else None

    def innermost(self) -> Optional[Span]:
        """The deepest open span across every node's ambient stack.

        Checkers with no node of their own (the shared image store, the
        end-of-round audits) use this to attribute a violation to the
        operation in flight — during a checkpoint round that is e.g.
        ``zap.store_write`` rather than nothing at all.
        """
        best: Optional[Span] = None
        depth = 0
        for stack in self._stacks.values():
            if len(stack) > depth:
                depth = len(stack)
                best = stack[-1]
        return best

    def clear(self) -> None:
        self.spans.clear()
        self._by_id.clear()
        self._children.clear()
        self._stacks.clear()

    # -- queries -----------------------------------------------------------

    def parent_of(self, span: Span) -> Optional[Span]:
        if span.parent_id is None:
            return None
        return self._by_id.get(span.parent_id)

    def children_of(self, span: Span) -> List[Span]:
        return list(self._children.get(span.span_id, ()))

    def effective_attr(self, span: Span, key: str,
                       default: Any = None) -> Any:
        """``span.attrs[key]``, inherited from the nearest ancestor that
        sets it — e.g. a ``zap.serialize`` span inherits ``epoch`` from
        the ``agent.local`` span it nests under."""
        current: Optional[Span] = span
        while current is not None:
            if key in current.attrs:
                return current.attrs[key]
            current = self.parent_of(current)
        return default

    def query(self, name: Optional[str] = None,
              node: Optional[str] = None,
              include_open: bool = False,
              **attrs: Any) -> List[Span]:
        """Spans matching name/node and every attr (ancestors included)."""
        out = []
        for span in self.spans:
            if span.is_open and not include_open:
                continue
            if name is not None and span.name != name:
                continue
            if node is not None and span.node != node:
                continue
            if any(self.effective_attr(span, key) != value
                   for key, value in attrs.items()):
                continue
            out.append(span)
        return out

    def one(self, name: str, **attrs: Any) -> Span:
        """The unique span matching; raises if zero or several match."""
        matches = self.query(name=name, include_open=True, **attrs)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one span {name!r} matching {attrs}, "
                f"found {len(matches)}")
        return matches[0]

    # -- exporters ---------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON (the dict; caller serialises).

        Nodes map to processes (``pid`` + a ``process_name`` metadata
        event); spans are complete ``"X"`` events with microsecond
        timestamps, instants are ``"i"`` events. Span attrs ride in
        ``args`` together with ``span_id``/``parent_id`` so the hierarchy
        survives the flat format.
        """
        events: List[Dict[str, Any]] = []
        pid_of: Dict[str, int] = {}

        def pid_for(node: str) -> int:
            label = node or "global"
            if label not in pid_of:
                pid_of[label] = len(pid_of) + 1
                events.append({
                    "name": "process_name", "ph": "M",
                    "pid": pid_of[label], "tid": 0,
                    "args": {"name": label}})
            return pid_of[label]

        for span in self.spans:
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            base = {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "pid": pid_for(span.node),
                "tid": 1,
                "ts": span.start * 1e6,
                "args": args,
            }
            if span.kind == INSTANT:
                base.update(ph="i", s="t")
            else:
                end = span.end if span.end is not None else span.start
                base.update(ph="X", dur=(end - span.start) * 1e6)
            events.append(base)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def summary_rows(self) -> List[Dict[str, Any]]:
        """Flat per-name aggregate: count, total/mean/max seconds."""
        agg: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.is_open:
                continue
            agg.setdefault(span.name, []).append(span.duration)
        rows = []
        for name in sorted(agg):
            durations = agg[name]
            rows.append({
                "span": name,
                "count": len(durations),
                "total_s": sum(durations),
                "mean_s": sum(durations) / len(durations),
                "max_s": max(durations),
            })
        return rows


def union_coverage(intervals: Iterable[Tuple[float, float]],
                   start: float, end: float) -> float:
    """Fraction of ``[start, end]`` covered by the union of intervals."""
    window = end - start
    if window <= 0:
        return 0.0
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals if hi > start and lo < end)
    covered = 0.0
    cursor = start
    for lo, hi in clipped:
        if hi <= cursor:
            continue
        covered += hi - max(lo, cursor)
        cursor = hi
    return covered / window


def round_phases(recorder: SpanRecorder, epoch: int) -> Dict[str, float]:
    """Per-phase breakdown of one coordination round, in seconds.

    Coordinator phases (``coord.*``) are sequential, so repeats sum;
    agent/zap phases run in parallel across nodes, so the value is the
    max — the critical-path view of where the round's latency went.
    """
    phases: Dict[str, float] = {}
    for span in recorder.query(epoch=epoch):
        if span.name == "round" or span.kind == INSTANT:
            continue
        if span.name.startswith("coord."):
            phases[span.name] = phases.get(span.name, 0.0) + span.duration
        else:
            phases[span.name] = max(phases.get(span.name, 0.0),
                                    span.duration)
    return phases


def round_coverage(recorder: SpanRecorder, epoch: int) -> float:
    """Fraction of one round's latency window the phase spans account for.

    The window is the ``round`` span's start to the end of the
    coordinator's ``coord.wait_done`` phase — the exact interval
    ``RoundStats.latency_s`` measures. Every span except the umbrella
    ``round`` span counts toward coverage; a healthy instrumentation
    covers ≥ 95 % of the window (the rest is message flight time between
    phases).
    """
    round_span = recorder.one("round", epoch=epoch)
    try:
        end = recorder.one("coord.wait_done", epoch=epoch).end
    except LookupError:
        end = round_span.end
    if end is None:
        return 0.0
    intervals = [(span.start, span.end)
                 for span in recorder.query(epoch=epoch)
                 if span.name != "round" and span.kind == SPAN]
    return union_coverage(intervals, round_span.start, end)


# ---------------------------------------------------------------------------
# Typed metrics
# ---------------------------------------------------------------------------


class CounterMetric:
    """Monotonic counter with optional per-label sub-counts."""

    __slots__ = ("name", "value", "by_label")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.by_label: Dict[str, float] = {}

    def inc(self, amount: float = 1, label: str = "") -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        if label:
            self.by_label[label] = self.by_label.get(label, 0) + amount

    def labelled(self, label: str) -> float:
        return self.by_label.get(label, 0)


class GaugeMetric:
    """A value that can move both ways (queue depth, open rounds...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class HistogramMetric:
    """Exact-sample histogram with nearest-rank percentiles."""

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in (0, 100]."""
        if not self.values:
            return 0.0
        if not 0 < p <= 100:
            raise ValueError(f"percentile {p} outside (0, 100]")
        ordered = sorted(self.values)
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without math
        return ordered[int(rank) - 1]


class MetricsRegistry:
    """Named, typed metrics; get-or-create, type-checked per name."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}")
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get(name, CounterMetric)

    def gauge(self, name: str) -> GaugeMetric:
        return self._get(name, GaugeMetric)

    def histogram(self, name: str) -> HistogramMetric:
        return self._get(name, HistogramMetric)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data dump (for ``--json`` output and tests)."""
        out: Dict[str, Any] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, CounterMetric):
                out[name] = {"type": "counter", "value": metric.value,
                             "by_label": dict(metric.by_label)}
            elif isinstance(metric, GaugeMetric):
                out[name] = {"type": "gauge", "value": metric.value}
            else:
                out[name] = {"type": "histogram", "count": metric.count,
                             "mean": metric.mean,
                             "p50": metric.percentile(50),
                             "p99": metric.percentile(99)}
        return out
