"""Per-layer host time and simulated cycles, measured from outside.

``Tracer.installed()`` replaces each layer's entry points, at the names
their callers look up, with timing wrappers, and puts the originals
back on exit.  No file under ``src/`` changes.

Every wrapped call is a span.  A span's self time is its duration minus
the time of the spans it encloses; self-times of all spans, plus the
``other`` root spans and the wrappers' own cost, partition the traced
jobs.  The simulated-cycle self delta is read the same way from the live
``counter.cycles`` of the runtime (or native interpreter) being run.

The wrapper's own cost is calibrated once on an empty function: the part
outside a child's clock is subtracted from its parent, the part inside
from the child itself, and both are reported as ``trace.wrapper_s``.
"""

import importlib
import time
from contextlib import contextmanager

from repro.machine.cost import CycleCounter
from repro.machine.interp import Interpreter

# (layer, owner, attribute): owner is a module, or "module:Class".
ENTRY_POINTS = (
    ("minicc", "repro.minicc", "compile_source"),
    ("decoder", "repro.core.bb_builder", "decode_opcode"),
    ("decoder", "repro.core.bb_builder", "decode_boundary"),
    ("bb_builder", "repro.core.runtime", "build_basic_block"),
    ("build", "repro.core.runtime:DynamoRIO", "_build_bb"),
    ("build", "repro.core.runtime:DynamoRIO", "_finalize_trace"),
    ("emit", "repro.core.runtime", "emit_fragment"),
    ("translate", "repro.core.translate", "build_translation"),
    ("closures", "repro.core.closures", "compile_fragment"),
    ("closures", "repro.core.execute", "compile_fragment"),
    ("trace_builder", "repro.core.runtime", "stitch_trace"),
    ("chains", "repro.core.chains:ChainManager", "_build"),
    ("dispatch", "repro.core.runtime:DynamoRIO", "_dispatch"),
    ("link", "repro.core.runtime:DynamoRIO", "_maybe_link"),
    ("execute", "repro.core.execute:Executor", "run"),
    ("code_cache", "repro.core.runtime:DynamoRIO", "_delete_fragment"),
    ("code_cache", "repro.core.runtime:DynamoRIO", "_pressure_flush"),
    ("code_cache", "repro.core.runtime:DynamoRIO", "_evict_fifo"),
    ("signals", "repro.core.runtime:DynamoRIO", "_deliver_signal"),
    ("resilience", "repro.resilience.shield:Shield", "deliver"),
    ("resilience", "repro.resilience.shield:RuntimeGuard", "check"),
    ("resilience", "repro.resilience.guard:ClientGuard", "build_hook"),
    ("resilience", "repro.resilience.guard:ClientGuard", "call"),
    ("interp", "repro.machine.interp:Interpreter", "run"),
)

# Hooks of the attached client, wrapped on the client instance.
CLIENT_HOOKS = ("basic_block", "trace", "end_trace")

LAYERS = tuple(dict.fromkeys(
    [layer for layer, _owner, _name in ENTRY_POINTS] + ["clients", "other"]
))

# Run statistics summed over the traced pass (RunResult.events keys).
_EVENT_SUMS = (
    "context_switches", "direct_links", "ibl_hits", "ibl_misses",
    "cache_evictions", "fragments_deleted", "bbs_built", "traces_built",
    "signals_delivered", "client_faults", "shield_faults",
)


def resolve(owner):
    """The module or class an ENTRY_POINTS owner names."""
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


def _empty():
    pass


class Tracer:
    """Spans aggregated in memory per layer: self seconds, calls, and
    simulated-cycle self deltas."""

    def __init__(self):
        # Frame: [start, start cycles, child seconds, child cycles,
        # wrapped child calls].  The base frame absorbs spans opened
        # outside any root (and is never read).
        self._stack = [[0.0, 0, 0.0, 0, 0]]
        self._idle = CycleCounter()
        self.counter = self._idle
        # layer -> [self seconds, calls, self cycles, wrapper seconds]
        self.totals = {layer: [0.0, 0, 0, 0.0] for layer in LAYERS}
        self.stats = dict.fromkeys(_EVENT_SUMS, 0)
        self.stats.update(
            guest_instructions=0, interp_instructions=0,
            signal_latency_max=0, regenerated=0, cache_bytes_max=0,
            chains_built=0, chains_dissolved=0,
        )
        self.cycle_mismatches = []
        # Wrappers take the costs when made, so calibrate with zeros.
        self.outer = self.inner = 0.0
        self.outer, self.inner = self._calibrate()

    # ------------------------------------------------------------- spans

    def _wrap(self, layer, fn):
        stack = self._stack
        slot = self.totals[layer]
        clock = time.perf_counter
        outer = self.outer
        inner = self.inner
        tracer = self

        def timed(*args, **kwargs):
            frame = [clock(), tracer.counter.cycles, 0.0, 0, 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                cycles = tracer.counter.cycles - frame[1]
                stack.pop()
                overhead = frame[4] * outer + inner
                slot[0] += duration - frame[2] - overhead
                slot[1] += 1
                slot[2] += cycles - frame[3]
                slot[3] += overhead
                parent = stack[-1]
                parent[2] += duration
                parent[3] += cycles
                parent[4] += 1

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def root(self):
        """A job-level ``other`` span.  It records host time only: it
        outlives every engine's cycle counter, and each engine run is an
        ``other`` span of its own (``run``)."""
        frame = [time.perf_counter(), 0, 0.0, 0, 0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            overhead = frame[4] * self.outer
            slot = self.totals["other"]
            slot[0] += duration - frame[2] - overhead
            slot[3] += overhead

    def _calibrate(self, calls=20000, trials=5):
        """Wrapper cost per call, (outside, inside) the child's clock:
        the minimum over trials of an empty function wrapped vs bare."""
        self.totals["calibrate"] = [0.0, 0, 0, 0.0]
        timed = self._wrap("calibrate", _empty)
        clock = time.perf_counter
        outers = []
        inners = []
        for _ in range(trials):
            start = clock()
            for _ in range(calls):
                _empty()
            bare = clock() - start
            frame = [clock(), 0, 0.0, 0, 0]
            self._stack.append(frame)
            for _ in range(calls):
                timed()
            total = clock() - frame[0]
            self._stack.pop()
            outers.append((total - frame[2] - bare) / calls)
            inners.append(frame[2] / calls)
        del self.totals["calibrate"]
        return max(min(outers), 0.0), min(inners)

    # ----------------------------------------------------------- patching

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for layer, owner, name in ENTRY_POINTS:
                target = resolve(owner)
                original = vars(target)[name]
                saved.append((target, name, original))
                setattr(target, name, self._wrap(layer, original))
            yield self
        finally:
            for target, name, original in reversed(saved):
                setattr(target, name, original)

    def wrap_client(self, client):
        """Wrap the hooks of one client instance (it dies with its job)."""
        for name in CLIENT_HOOKS:
            setattr(client, name, self._wrap("clients", getattr(client, name)))

    # ----------------------------------------------------------- engine runs

    def run(self, engine):
        """``engine.run()`` as one ``other`` span on the engine's own
        cycle counter; checks the layers' cycles sum to the result's."""
        before = sum(slot[2] for slot in self.totals.values())
        self.counter = engine.counter
        try:
            result = self._wrap("other", engine.run)()
        finally:
            self.counter = self._idle
        spanned = sum(slot[2] for slot in self.totals.values()) - before
        if spanned != result.cycles:
            self.cycle_mismatches.append((spanned, result.cycles))
        self._collect(engine, result)
        return result

    def _collect(self, engine, result):
        stats = self.stats
        if isinstance(engine, Interpreter):
            stats["interp_instructions"] += result.instructions
            return
        stats["guest_instructions"] += result.instructions
        events = result.events
        for key in _EVENT_SUMS:
            stats[key] += events.get(key, 0)
        stats["signal_latency_max"] = max(
            stats["signal_latency_max"], events.get("signal_latency_max", 0)
        )
        units = {}
        for thread in engine.threads:
            for cache in (thread.bb_cache, thread.trace_cache):
                units[id(cache)] = cache
        stats["regenerated"] += sum(u.regenerated for u in units.values())
        stats["cache_bytes_max"] = max(
            stats["cache_bytes_max"], sum(u.used() for u in units.values())
        )
        if engine.chains is not None:
            report = engine.chains.report()
            stats["chains_built"] += report["chains_built"]
            stats["chains_dissolved"] += report["chains_invalidated"]

    # ------------------------------------------------------------- results

    def accounted_s(self):
        """Self seconds of every layer plus the wrappers' cost."""
        return sum(slot[0] + slot[3] for slot in self.totals.values())

    def metrics(self, traced_s, untraced_s):
        """Every per-layer metric, by name."""
        totals = self.totals
        stats = self.stats

        def self_s(layer):
            return totals[layer][0]

        def calls(layer):
            return totals[layer][1]

        def cycles(layer):
            return totals[layer][2]

        def per(numerator, denominator, scale=1.0):
            return scale * numerator / denominator if denominator else 0.0

        built = stats["bbs_built"] + stats["traces_built"]
        lookups = stats["ibl_hits"] + stats["ibl_misses"]
        metrics = {"%s.self_s" % layer: self_s(layer) for layer in LAYERS}
        metrics.update({
            "decoder.calls": calls("decoder"),
            "bb_builder.blocks": calls("bb_builder"),
            "build.sim_cycles": cycles("build"),
            "clients.hooks": calls("clients"),
            "emit.fragments": calls("emit"),
            "emit.us_per_fragment": per(self_s("emit"), calls("emit"), 1e6),
            "closures.fragments": calls("closures"),
            "trace_builder.traces": calls("trace_builder"),
            "chains.built": stats["chains_built"],
            "chains.dissolved": stats["chains_dissolved"],
            "dispatch.sim_cycles": cycles("dispatch"),
            "dispatch.entries": calls("execute"),
            "link.sim_cycles": cycles("link"),
            "link.direct_links": stats["direct_links"],
            "execute.sim_cycles": cycles("execute"),
            "execute.guest_kips": per(
                stats["guest_instructions"], self_s("execute"), 1e-3
            ),
            "execute.context_switches": stats["context_switches"],
            "ibl.hits": stats["ibl_hits"],
            "ibl.misses": stats["ibl_misses"],
            "ibl.hit_ratio": per(stats["ibl_hits"], lookups),
            "code_cache.evictions": stats["cache_evictions"],
            "code_cache.fragments_deleted": stats["fragments_deleted"],
            "code_cache.regen_ratio": per(built, built - stats["regenerated"]),
            "code_cache.kb": stats["cache_bytes_max"] / 1024.0,
            "signals.delivered": stats["signals_delivered"],
            "signals.latency_max": stats["signal_latency_max"],
            "resilience.faults": stats["client_faults"] + stats["shield_faults"],
            "interp.guest_kips": per(
                stats["interp_instructions"], self_s("interp"), 1e-3
            ),
            "other.sim_cycles": cycles("other"),
            "trace.wrapper_s": sum(slot[3] for slot in totals.values()),
            "trace.overhead_pct": per(traced_s - untraced_s, untraced_s, 100.0),
        })
        return metrics
