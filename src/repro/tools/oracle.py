"""The differential oracle: one ``Cell → Verdict`` check.

Transparency is the runtime's core promise: a program that is cached,
linked, traced and rewritten by clients behaves exactly as it does
natively.  Every differential harness (the chaos, detach and
equivalence CLIs, the verification-cost benchmark, the determinism
tests) is a matrix of :class:`Cell` objects handed to :func:`check`.

A cell is one program under one configuration, run once per
:class:`Column`: by default one runtime column, or option and
runtime-hook variants (traced/untraced, shield on/off, memo vs a memo
that never hits).  ``check`` runs the program natively once per image,
then every column, and applies one fixed invariant set.  Each failure
names its invariant: per run ``exception``, ``output`` and
``exit_code`` (against native), ``final_state`` (per-thread registers
and eflags against native, unless native delivered a signal: delivery
at a fragment boundary legitimately moves the point of interruption),
``replay`` and ``verifier``; across columns
``cycles``, ``instructions``, ``output``, ``exit_code``, ``events``,
``final_state`` and ``event_stream``.  A cell's own ``checks`` are
functions of one :class:`Run` yielding problem strings, named after the
function.  DESIGN §4i states the invariants in full.
"""

import time
import traceback
import weakref
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.interp import Interpreter, RunResult
from repro.observe.events import replay_stats


@dataclass(frozen=True)
class Column:
    """One way of running a cell's program: ``options`` overrides apply
    after the cell's factory, ``setup(runtime)`` runs after the cell's
    setup hook, and ``interp`` (``"native"`` or ``"emulation"``) runs
    the reference interpreter instead of the runtime."""

    name: str
    options: Mapping = field(default_factory=dict)
    setup: Optional[Callable] = None
    interp: Optional[str] = None


@dataclass(frozen=True)
class Cell:
    """One program under one configuration.  ``options`` and ``client``
    are factories called per column; the default is one ``"runtime"``
    column.  ``setup(runtime)`` runs before every ``run()``;
    ``client_faults`` marks cells whose verifier errors are expected."""

    image: object
    options: Callable = RuntimeOptions.with_traces
    client: Callable = lambda: None
    columns: Sequence = (Column("runtime"),)
    setup: Optional[Callable] = None
    checks: Sequence = ()
    client_faults: bool = False


@dataclass
class Run:
    """One column's runtime (or interpreter), client, and the result or
    the exception that escaped ``run()``."""

    column: Column
    runtime: object
    client: object = None
    result: object = None
    error: Optional[BaseException] = None
    seconds: float = 0.0

    @property
    def traced(self):
        return getattr(self.runtime, "observer", None) is not None

    def stream(self):
        return [(e.kind, e.tag, e.data) for e in self.runtime.observer.events()]

    def final_state(self):
        return final_state(self.runtime)


def final_state(runner):
    """Per-thread registers and eflags of a finished runtime or
    interpreter."""
    # A runtime without a code cache ran the program in its emulator;
    # either kind of thread carries its CPU.
    runner = getattr(runner, "emulator", None) or runner
    return [(tuple(t.cpu.regs), "%#x" % t.cpu.eflags) for t in runner.threads]


class Failure(namedtuple("Failure", "invariant column detail")):
    def __str__(self):
        return "%s [%s]: %s" % self


@dataclass(repr=False)
class Verdict:
    """What :func:`check` found: the runs and every failure."""

    cell: Cell
    native: object
    runs: list
    failures: list

    @property
    def ok(self):
        return not self.failures

    def failed(self):
        """The names of the violated invariants."""
        return {failure.invariant for failure in self.failures}

    def __getitem__(self, column_name):
        return next(run for run in self.runs if run.column.name == column_name)

    def __str__(self):
        if self.ok:
            return "ok (%d runs)" % len(self.runs)
        return "; ".join(map(str, self.failures))

    __repr__ = __str__


# The reference run: the native interpreter's RunResult fields plus its
# final_state().
Native = namedtuple("Native", RunResult._fields + ("final_state",))

# A native run is a function of the image alone, so it is computed once
# per image and forgotten with it.
_natives = weakref.WeakKeyDictionary()


def native_result(image):
    """The image's :class:`Native` run, computed once per image."""
    if image not in _natives:
        interp = Interpreter(Process(image))
        _natives[image] = Native(*interp.run(), final_state(interp))
    return _natives[image]


def check(cell):
    """Run ``cell`` natively and in every column; returns its Verdict."""
    native = native_result(cell.image)
    runs = [_execute(cell, column) for column in cell.columns]
    failures = [
        Failure(invariant, run.column.name, detail)
        for run in runs
        for invariant, detail in _run_failures(cell, native, run)
    ]
    failures += _cross_failures([run for run in runs if run.error is None])
    return Verdict(cell, native, runs, failures)


def sweep(cells, verbose=False):
    """Check ``(label, cell)`` pairs, printing each failure (and, when
    verbose, each passing cell); returns (runs, failures)."""
    runs = failures = 0
    for label, cell in cells:
        verdict = check(cell)
        runs += len(verdict.runs)
        failures += len(verdict.failures)
        for failure in verdict.failures:
            print("FAIL %s: %s" % (label, failure))
        if verbose and verdict.ok:
            print("ok   %s: %s" % (label, verdict))
    return runs, failures


def _execute(cell, column):
    if column.interp is not None:
        run = Run(column, Interpreter(Process(cell.image), mode=column.interp))
    else:
        options = cell.options()
        for key, value in column.options.items():
            setattr(options, key, value)
        client = cell.client()
        run = Run(column, DynamoRIO(
            Process(cell.image), options=options, client=client
        ), client)
        for hook in (cell.setup, column.setup):
            if hook is not None:
                hook(run.runtime)
    start = time.perf_counter()
    try:
        run.result = run.runtime.run()
    except Exception as exc:  # the first invariant: nothing escapes
        run.error = exc
    run.seconds = time.perf_counter() - start
    return run


def _run_failures(cell, native, run):
    """(invariant, detail) pairs for one run on its own."""
    if run.error is not None:
        yield "exception", "".join(traceback.format_exception(
            type(run.error), run.error, run.error.__traceback__
        )).strip()
        return
    runtime = run.runtime
    for invariant in ("output", "exit_code"):
        got, want = getattr(run.result, invariant), getattr(native, invariant)
        if got != want:
            yield invariant, "%s, native %s" % (_show(got), _show(want))
    if not native.events.get("signals_delivered"):
        state = run.final_state()
        if state != native.final_state:
            yield "final_state", "run/native " + _differences(
                state, native.final_state
            )
    options = getattr(runtime, "options", None)
    if run.traced and options.trace_events and options.trace_buffer is None:
        if runtime.observer.dropped:
            yield "replay", "%d events dropped" % runtime.observer.dropped
        live = runtime.stats.as_dict()
        replayed = replay_stats(runtime.observer.events())
        if replayed != live:
            yield "replay", "replayed/live " + _differences(replayed, live)
    errors = [
        d for d in getattr(runtime, "verifier_diagnostics", ()) if d.is_error
    ]
    if errors and not cell.client_faults:
        yield "verifier", "%d errors; first:\n%s" % (
            len(errors), errors[0].format()
        )
    for cell_check in cell.checks:
        for problem in cell_check(run):
            yield cell_check.__name__, problem


def _cross_failures(runs):
    """Failures of the columns that disagree with the first one."""
    if not runs:
        return []
    all_traced = all(run.traced for run in runs)

    def observables(run):
        result = run.result
        return {
            "cycles": result.cycles,
            "instructions": result.instructions,
            "output": result.output,
            "exit_code": result.exit_code,
            "events": {
                key: value for key, value in result.events.items()
                if all_traced or not key.startswith("observe_")
            },
            "final_state": run.final_state(),
            "event_stream": run.stream() if all_traced else None,
        }

    want = observables(runs[0])
    return [
        Failure(invariant, run.column.name, "%s/%s %s" % (
            run.column.name, runs[0].column.name,
            _differences(got, want[invariant]),
        ))
        for run in runs[1:]
        for invariant, got in observables(run).items()
        if got != want[invariant]
    ]


def _differences(got, want):
    """Where two observables differ, as ``got/want``."""
    if isinstance(got, dict):
        return ", ".join(
            "%s %r/%r" % (key, got.get(key), want.get(key))
            for key in sorted(set(got) | set(want))
            if got.get(key) != want.get(key)
        )
    if isinstance(got, list):
        index = next(
            (i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
            min(len(got), len(want)),
        )
        return "item %d of %d/%d: %r/%r" % (
            index, len(got), len(want), got[index:index + 1],
            want[index:index + 1],
        )
    return "%s/%s" % (_show(got), _show(want))


def _show(value):
    return repr(value[:32] if isinstance(value, bytes) else value)
