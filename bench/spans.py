"""Span recorder for the benchmark's traced run.

The traced process replaces public entry points of the nfdl modules with
wrappers that record one span per call: name, parent span, start and end
(``perf_counter_ns``).  Spans stay in compact in-memory arrays until the run
ends; then a layer's self time is computed as each span's duration minus the
durations of its direct children, and the spans are saved with
:meth:`SpanRecorder.save` for offline reading.

Nothing under ``src/`` knows about this module: it patches module and class
attributes from outside, so only calls that go through those attributes are
seen.  In particular ``simnet.heapq`` is swapped for a namespace holding
wrapped ``heappush``/``heappop``, which times exactly the heap calls the
simulator makes and leaves the real ``heapq`` module alone.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import time
import types
from array import array

import numpy as np


class SpanRecorder:
    """Append-only span store; span ids are their indices, parents -1 at top."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        # name -> calls whose result satisfied the wrapper's outcome predicate
        self.outcomes: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, outcome=None):
        """Return ``fn`` wrapped to record a span called ``name`` per call.

        ``outcome``, when given, is a predicate on the return value; calls
        for which it holds are counted in ``outcomes[name]``.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        self.outcomes.setdefault(name, 0)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(rec.current)
            ends.append(0)
            rec.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                rec.current = parents[idx]
            if outcome is not None and outcome(result):
                rec.outcomes[name] += 1
            return result

        return span

    def arrays(self) -> dict[str, np.ndarray]:
        """Every span recorded so far as numpy arrays, with self times."""
        stop = len(self)

        def column(buf, dtype):
            # Copied: a numpy view would pin the buffer, and a pinned
            # array.array refuses to grow on the next recorded span.
            return np.frombuffer(buf, dtype=dtype, count=stop).copy()

        start = column(self.start, np.int64)
        end = column(self.end, np.int64)
        parent = column(self.parent, np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=stop
        )
        return {
            "name_id": column(self.name_id, np.int32),
            "parent": parent,
            "start_ns": start,
            "end_ns": end,
            "dur_ns": dur,
            "self_ns": dur - child.astype(np.int64),
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=a["name_id"],
            parent=a["parent"],
            start_ns=a["start_ns"],
            end_ns=a["end_ns"],
        )


# (span name, layer, "module:Class" or "module", attribute, outcome predicate)
ENTRY_POINTS = (
    ("link_stream", "simnet.link", "nfdl.simnet", "link_stream", None),
    ("sample_delivery", "simnet.link", "nfdl.simnet", "sample_delivery",
     lambda at: at is None),
    ("ArrivalWindow.record", "estimator", "nfdl.estimator:ArrivalWindow",
     "record", None),
    ("ArrivalWindow.expected_arrival", "estimator",
     "nfdl.estimator:ArrivalWindow", "expected_arrival", None),
    ("NfdlProcess.on_heartbeat", "protocol", "nfdl.protocol:NfdlProcess",
     "on_heartbeat", lambda out: out.changed),
    ("NfdlProcess.on_timer_fire", "protocol", "nfdl.protocol:NfdlProcess",
     "on_timer_fire", None),
    ("NfdlProcess.next_heartbeat", "protocol", "nfdl.protocol:NfdlProcess",
     "next_heartbeat", lambda hb: hb is not None),
    ("NfdeMonitor.on_heartbeat", "protocol", "nfdl.protocol:NfdeMonitor",
     "on_heartbeat", None),
    ("NfdeMonitor.on_timeout", "protocol", "nfdl.protocol:NfdeMonitor",
     "on_timeout", None),
    ("Simulator.run", "simnet.dispatch", "nfdl.simnet:Simulator", "run", None),
    ("TraceEvent.line", "simnet.trace", "nfdl.simnet:TraceEvent", "line", None),
    ("EventTrace.lines", "simnet.trace", "nfdl.simnet:EventTrace", "lines", None),
    ("EventTrace.write", "simnet.trace", "nfdl.simnet:EventTrace", "write", None),
    ("MemoryStore.load_zerotime", "stable_store", "nfdl.stable_store:MemoryStore",
     "load_zerotime", None),
    ("MemoryStore.store_zerotime", "stable_store",
     "nfdl.stable_store:MemoryStore", "store_zerotime", None),
    ("FileStore.load_zerotime", "stable_store", "nfdl.stable_store:FileStore",
     "load_zerotime", None),
    ("FileStore.store_zerotime", "stable_store", "nfdl.stable_store:FileStore",
     "store_zerotime", None),
    ("build_report", "qos", "nfdl.qos", "build_report", None),
    ("output_timeline", "qos", "nfdl.qos", "output_timeline", None),
    ("metrics_csv_lines", "qos", "nfdl.qos", "metrics_csv_lines", None),
    ("summary_csv_lines", "qos", "nfdl.qos", "summary_csv_lines", None),
    ("text_report_lines", "qos", "nfdl.qos", "text_report_lines", None),
    ("write_lines", "qos", "nfdl.qos", "write_lines", None),
    ("cli.main", "cli", "nfdl.cli", "main", None),
)
QUEUE_SPANS = (("heappush", "simnet.queue"), ("heappop", "simnet.queue"))
LAYER_OF = {name: layer for name, layer, *_ in ENTRY_POINTS} | dict(QUEUE_SPANS)
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
CSV_SPANS = ("metrics_csv_lines", "summary_csv_lines", "text_report_lines",
             "write_lines")


def instrument(rec: SpanRecorder) -> None:
    """Wrap every entry point in ENTRY_POINTS, plus simnet's heap calls."""
    for name, _layer, owner, attr, outcome in ENTRY_POINTS:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls)
        setattr(target, attr, rec.wrap(name, getattr(target, attr), outcome))
    simnet = importlib.import_module("nfdl.simnet")
    simnet.heapq = types.SimpleNamespace(
        heappush=rec.wrap("heappush", heapq.heappush),
        heappop=rec.wrap("heappop", heapq.heappop),
    )


# Per-layer metrics of the traced run, in report order: (name, unit).
LAYER_METRICS = (
    ("simnet.link.calls", "count"),
    ("simnet.link.stream_us", "us"),
    ("simnet.link.sample_us", "us"),
    ("simnet.link.drop_ratio", "ratio"),
    ("simnet.link.self_s", "s"),
    ("estimator.calls", "count"),
    ("estimator.expected_arrival_us", "us"),
    ("estimator.record_us", "us"),
    ("estimator.self_s", "s"),
    ("protocol.on_heartbeat.calls", "count"),
    ("protocol.on_heartbeat_us", "us"),
    ("protocol.adoptions", "count"),
    ("protocol.monitor_us", "us"),
    ("protocol.tick_useful_ratio", "ratio"),
    ("protocol.self_s", "s"),
    ("simnet.queue.pushes", "count"),
    ("simnet.queue.pops", "count"),
    ("simnet.queue.push_us", "us"),
    ("simnet.queue.pop_us", "us"),
    ("simnet.queue.useful_ratio", "ratio"),
    ("simnet.queue.self_s", "s"),
    ("simnet.dispatch.self_s", "s"),
    ("simnet.trace.events", "count"),
    ("simnet.trace.line_us", "us"),
    ("simnet.trace.write_s", "s"),
    ("simnet.trace.bytes", "bytes"),
    ("simnet.trace.self_s", "s"),
    ("stable_store.loads", "count"),
    ("stable_store.writes", "count"),
    ("stable_store.load_us", "us"),
    ("stable_store.store_us", "us"),
    ("stable_store.self_s", "s"),
    ("qos.build_report_s", "s"),
    ("qos.output_timeline.calls", "count"),
    ("qos.output_timeline_us", "us"),
    ("qos.csv_s", "s"),
    ("qos.self_s", "s"),
    ("cli.run_s", "s"),
    ("traced.wall_s", "s"),
    ("traced.unaccounted_s", "s"),
    ("traced.overhead_s", "s"),
)


def layer_metrics(
    rec: SpanRecorder,
    window: tuple[int, int, int],
    trace_events: int,
    trace_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``window`` is (first span id, start ns, end ns) of the measured interval,
    from a constructed Simulator to written results; call this as soon as
    the window closes, since every span recorded so far counts.  Call counts
    and mean durations cover every call in the process, set-up included.  ``<layer>.self_s`` sums the self time of the
    spans that start inside the window, so the layer self times plus
    ``traced.unaccounted_s`` (code no wrapper covers, such as the glue
    between phases) add up to ``traced.wall_s``.  ``traced.overhead_s`` needs
    an untraced run and is filled in by the caller.
    """
    first, t0, t1 = window
    a = rec.arrays()
    nid, parent = a["name_id"], a["parent"]
    parent_nid = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)

    def ids(wanted):
        return [rec._ids[n] for n in wanted if n in rec._ids]

    def calls(*wanted):
        return int(np.isin(nid, ids(wanted)).sum())

    def mean_us(*wanted):
        sel = np.isin(nid, ids(wanted))
        return float(a["dur_ns"][sel].mean()) / 1e3 if sel.any() else 0.0

    def outer_s(*wanted):
        """Inclusive seconds of the outermost calls among ``wanted``."""
        sel = np.isin(nid, ids(wanted)) & ~np.isin(parent_nid, ids(wanted))
        return float(a["dur_ns"][sel].sum()) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    layer = np.array([LAYERS.index(LAYER_OF[n]) for n in rec.names])[nid]
    in_window = np.arange(len(nid)) >= first
    self_s = {
        lyr: float(a["self_ns"][in_window & (layer == i)].sum()) / 1e9
        for i, lyr in enumerate(LAYERS)
    }
    wall_s = (t1 - t0) / 1e9
    drops = rec.outcomes.get("sample_delivery", 0)
    useful_ticks = rec.outcomes.get("NfdlProcess.next_heartbeat", 0)
    pops = calls("heappop")
    return {
        "simnet.link.calls": calls("link_stream"),
        "simnet.link.stream_us": mean_us("link_stream"),
        "simnet.link.sample_us": mean_us("sample_delivery"),
        "simnet.link.drop_ratio": ratio(drops, calls("sample_delivery")),
        "simnet.link.self_s": self_s["simnet.link"],
        "estimator.calls": calls("ArrivalWindow.record",
                                 "ArrivalWindow.expected_arrival"),
        "estimator.expected_arrival_us": mean_us("ArrivalWindow.expected_arrival"),
        "estimator.record_us": mean_us("ArrivalWindow.record"),
        "estimator.self_s": self_s["estimator"],
        "protocol.on_heartbeat.calls": calls("NfdlProcess.on_heartbeat"),
        "protocol.on_heartbeat_us": mean_us("NfdlProcess.on_heartbeat"),
        "protocol.adoptions": rec.outcomes.get("NfdlProcess.on_heartbeat", 0),
        "protocol.monitor_us": mean_us("NfdeMonitor.on_heartbeat",
                                       "NfdeMonitor.on_timeout"),
        "protocol.tick_useful_ratio": ratio(
            useful_ticks, calls("NfdlProcess.next_heartbeat")),
        "protocol.self_s": self_s["protocol"],
        "simnet.queue.pushes": calls("heappush"),
        "simnet.queue.pops": pops,
        "simnet.queue.push_us": mean_us("heappush"),
        "simnet.queue.pop_us": mean_us("heappop"),
        "simnet.queue.useful_ratio": ratio(trace_events, pops),
        "simnet.queue.self_s": self_s["simnet.queue"],
        "simnet.dispatch.self_s": self_s["simnet.dispatch"],
        "simnet.trace.events": trace_events,
        "simnet.trace.line_us": mean_us("TraceEvent.line"),
        "simnet.trace.write_s": outer_s("EventTrace.write"),
        "simnet.trace.bytes": trace_bytes,
        "simnet.trace.self_s": self_s["simnet.trace"],
        "stable_store.loads": calls("MemoryStore.load_zerotime",
                                    "FileStore.load_zerotime"),
        "stable_store.writes": calls("MemoryStore.store_zerotime",
                                     "FileStore.store_zerotime"),
        "stable_store.load_us": mean_us("MemoryStore.load_zerotime",
                                        "FileStore.load_zerotime"),
        "stable_store.store_us": mean_us("MemoryStore.store_zerotime",
                                         "FileStore.store_zerotime"),
        "stable_store.self_s": self_s["stable_store"],
        "qos.build_report_s": outer_s("build_report"),
        "qos.output_timeline.calls": calls("output_timeline"),
        "qos.output_timeline_us": mean_us("output_timeline"),
        "qos.csv_s": outer_s(*CSV_SPANS),
        "qos.self_s": self_s["qos"],
        "cli.run_s": outer_s("cli.main"),
        "traced.wall_s": wall_s,
        "traced.unaccounted_s": wall_s - sum(self_s.values()),
    }
