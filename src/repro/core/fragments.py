"""Fragment and exit-stub data structures.

A *fragment* is a basic block or trace resident in the code cache
(paper Section 2).  Each exit from a fragment has a :class:`LinkStub`:
when unlinked, control goes through the stub (running any client custom
stub code) and context-switches back to the runtime; when linked,
control transfers directly to the target fragment.
"""


class LinkStub:
    """One exit from a fragment."""

    __slots__ = (
        "fragment",
        "index",
        "kind",
        "target_tag",
        "linked_to",
        "stub_ops",
        "always_stub",
        "is_call_exit",
    )

    KIND_DIRECT = "direct"
    KIND_INDIRECT = "indirect"

    def __init__(self, fragment, index, kind, target_tag=None, stub_ops=(),
                 always_stub=False, is_call_exit=False):
        self.fragment = fragment
        self.index = index
        self.kind = kind
        self.target_tag = target_tag  # application address, direct exits
        self.linked_to = None  # Fragment when linked
        # Lowered client custom-stub instructions: list of (opcode, ops, cost)
        self.stub_ops = stub_ops
        self.always_stub = always_stub
        # Call exits do not count as "backward branches" for the default
        # trace-head heuristic (calls target earlier-placed functions all
        # the time; loop backedges are what NET heads are about).
        self.is_call_exit = is_call_exit

    def __repr__(self):
        state = "->%s" % self.linked_to if self.linked_to else "unlinked"
        return "<LinkStub #%d %s tag=0x%x %s>" % (
            self.index,
            self.kind,
            self.target_tag or 0,
            state,
        )


class FragmentBody:
    """The lowered, link-free part of a fragment.

    Everything emission derives from the InstrList alone: the op tuples
    (one per step, :mod:`repro.core.emit`), one exit descriptor per exit
    (``(kind, target_tag, stub_ops, always_stub, is_call_exit)``, the
    :class:`LinkStub` fields that do not change once lowered), the
    encoded size, the source list and the translation table.  ``runs``
    holds one entry per step: the run's generated segment
    (:func:`repro.core.closures.compile_segment`) for an ``OP_EXEC``
    step, else ``None`` — filled in by the first compile under a
    runtime (:func:`repro.core.closures.compile_runs`).

    A body carries no link state, so one body may back several
    fragments in turn (the runtime's retranslation memo re-emits an
    evicted block over its body); each fragment still gets its own
    stubs and exit steps.
    """

    __slots__ = (
        "code",
        "exits",
        "size",
        "instrs_source",
        "source_tags",
        "translation",
        "runs",
    )

    def __init__(self, code, exits, size, instrs_source, source_tags,
                 translation):
        self.code = code
        self.exits = exits
        self.size = size
        self.instrs_source = instrs_source
        self.source_tags = source_tags
        self.translation = translation
        self.runs = None


class Fragment:
    """A basic block or trace in the code cache."""

    __slots__ = (
        "tag",
        "kind",
        "body",
        "code",
        "exits",
        "cache_addr",
        "size",
        "instrs_source",
        "source_tags",
        "is_trace_head",
        "head_counter",
        "incoming",
        "deleted",
        "generation",
        "compiled",
        "source_spans",
        "translation",
    )

    KIND_BB = "bb"
    KIND_TRACE = "trace"

    def __init__(self, tag, kind):
        self.tag = tag
        self.kind = kind
        # The FragmentBody this fragment was emitted over; ``code``,
        # ``size``, ``instrs_source``, ``source_tags`` and
        # ``translation`` are copied from it.
        self.body = None
        self.code = ()  # lowered ops, one per step (see repro.core.emit)
        self.exits = []
        self.cache_addr = None
        self.size = 0  # encoded size in the simulated code cache
        # The InstrList this fragment was emitted from, retained to
        # support dr_decode_fragment (adaptive re-optimization).
        self.instrs_source = None
        # Ordered application block tags this fragment translates:
        # (tag,) for a basic block, the stitched sequence for a trace.
        # Input to the drequiv equivalence checker (analysis/equiv.py).
        self.source_tags = (tag,)
        self.is_trace_head = False
        self.head_counter = 0
        # Incoming LinkStubs pointing at this fragment (for unlinking
        # and fragment replacement).
        self.incoming = []
        self.deleted = False
        self.generation = 0
        # Closure-compiled step table (repro.core.closures); built when
        # the fragment is emitted under a runtime, lazily otherwise.
        self.compiled = None
        # Application-code byte ranges this fragment was translated
        # from: tuple of (start, end) pairs.  Registered with the
        # cache-consistency region map when options.cache_consistency is
        # on; traces carry the union of their constituent blocks' spans.
        self.source_spans = ()
        # Step -> application-PC map (repro.core.translate): built at
        # emit time; its poll map drives mid-fragment signal delivery
        # and detach.
        self.translation = None

    @property
    def is_trace(self):
        return self.kind == self.KIND_TRACE

    def __repr__(self):
        return "<Fragment %s tag=0x%x %d ops>" % (
            self.kind,
            self.tag,
            len(self.code),
        )
