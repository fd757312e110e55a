"""Sinks for the drtrace event stream and profiler.

Consumption paths:

* :class:`JsonlSink` — a *streaming* JSON Lines writer usable as a
  ``dr_register_event_tracer`` callback: each event is written as it is
  emitted, and the context manager flushes and closes the file even
  when the run raises, so a crashing (or chaos-injected) run still
  leaves a complete event log on disk;
* :func:`write_jsonl` — one JSON object per recorded event from an
  already-collected list, for offline analysis;
* :func:`format_report` — the end-of-run text report (event counts,
  hot-fragment table, attribution summary) printed by
  ``python -m repro.tools.trace``;
* ``Observer.summary()`` (in :mod:`repro.observe.events`) — flat
  integer counters merged into ``RunResult.events`` so experiments can
  assert on tracing results without touching the ring.
"""

import json


class JsonlSink:
    """Streaming JSON Lines event sink.

    Callable — register it directly as an event tracer — and a context
    manager: ``__exit__`` flushes and closes unconditionally, so events
    written before an exception survive (the pre-streaming exporter
    buffered everything and lost the whole log when the run raised).

    ``kinds`` optionally restricts which event kinds are written.
    """

    def __init__(self, fp_or_path, kinds=None):
        if hasattr(fp_or_path, "write"):
            self._fp = fp_or_path
            self._owns_fp = False
        else:
            self._fp = open(fp_or_path, "w")
            self._owns_fp = True
        self._kinds = None if kinds is None else frozenset(kinds)
        self.written = 0
        self.closed = False

    def __call__(self, event):
        if self.closed:
            return
        if self._kinds is not None and event.kind not in self._kinds:
            return
        self._fp.write(json.dumps(event.to_dict(), sort_keys=True))
        self._fp.write("\n")
        self.written += 1

    def close(self):
        if self.closed:
            return
        self.closed = True
        try:
            self._fp.flush()
        finally:
            if self._owns_fp:
                self._fp.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


def write_jsonl(events, fp_or_path):
    """Write events as JSON Lines through a :class:`JsonlSink`; returns
    the number written."""
    with JsonlSink(fp_or_path) as sink:
        for event in events:
            sink(event)
    return sink.written


def format_event(event):
    """One-line human rendering of an event."""
    tag = "0x%x" % event.tag if event.tag is not None else "-"
    if event.data:
        detail = " ".join(
            "%s=%s" % (k, v) for k, v in sorted(event.data.items())
        )
        return "#%-7d %-20s %-10s %s" % (event.seq, event.kind, tag, detail)
    return "#%-7d %-20s %s" % (event.seq, event.kind, tag)


def format_report(observer, top=10, total_cycles=None):
    """The end-of-run text report; returns a string."""
    lines = []
    lines.append("== drtrace report ==")
    lines.append(
        "events: %d recorded (%d emitted, %d dropped from ring)"
        % (len(observer.ring), observer.total_emitted, observer.dropped)
    )
    if observer.counts:
        lines.append("")
        lines.append("event counts:")
        for kind in sorted(observer.counts):
            lines.append("  %-22s %d" % (kind, observer.counts[kind]))

    prof = observer.profiler
    attributed = prof.attributed_cycles()
    overhead = prof.overhead_cycles()
    total = prof.total_cycles()
    lines.append("")
    lines.append(
        "cycle attribution: %d in fragments, %d runtime overhead"
        % (attributed, overhead)
    )
    if total_cycles is not None:
        lines.append(
            "attribution coverage: %d / %d total simulated cycles"
            % (total, total_cycles)
        )
    rows = prof.hot_fragments(top=top)
    if rows:
        lines.append("")
        lines.append(
            "hot fragments (top %d of %d):" % (len(rows), prof.fragment_count())
        )
        lines.append(
            "  %-12s %-6s %10s %14s %7s" % ("tag", "kind", "entries", "cycles", "share")
        )
        for row in rows:
            lines.append(
                "  %-12s %-6s %10d %14d %6.1f%%"
                % (
                    "0x%x" % row["tag"],
                    row["kind"],
                    row["entries"],
                    row["cycles"],
                    100.0 * row["share"],
                )
            )
    return "\n".join(lines)
