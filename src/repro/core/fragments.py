"""Fragment and exit-stub data structures.

A *fragment* is a basic block or trace resident in the code cache
(paper Section 2).  Its code is a :class:`FragmentBody`, lowered and
compiled once; the :class:`Fragment` holds only what linking,
unlinking, replacement and placement change.  Each exit from a fragment
has a :class:`LinkStub`: when unlinked, control goes through the stub
(running any client custom stub code, which the body's generated code
holds) and context-switches back to the runtime; when linked, control
transfers directly to the target fragment.
"""


class LinkStub:
    """One exit from a fragment: its link state."""

    __slots__ = (
        "fragment",
        "index",
        "kind",
        "target_tag",
        "linked_to",
        "is_call_exit",
    )

    KIND_DIRECT = "direct"
    KIND_INDIRECT = "indirect"

    def __init__(self, fragment, index, kind, target_tag=None,
                 is_call_exit=False):
        self.fragment = fragment
        self.index = index
        self.kind = kind
        self.target_tag = target_tag  # application address, direct exits
        self.linked_to = None  # Fragment when linked
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
    """The lowered, link-free part of a fragment, emitted once.

    Everything emission derives from the InstrList alone: the op tuples
    (:mod:`repro.core.emit`), one exit descriptor per exit
    (``(kind, target_tag, is_call_exit, stub, always_stub)``: the
    :class:`LinkStub` fields that do not change once lowered, then the
    client's custom stub code as ops of the body's format, runs and
    clean calls, and whether the exit runs it even when linked), the
    encoded size, the source InstrList (``dr_decode_fragment``, trace
    stitching), the ordered application block tags it translates
    (``(tag,)`` for a basic block, the stitched sequence for a trace;
    the drequiv equivalence checker's input) and the translation table
    (:mod:`repro.core.translate`).  ``entry`` is the body's generated
    function, ``entry(executor, cpu)`` runs one pass, filled in by the
    first compile under a runtime
    (:func:`repro.core.closures.compile_fragment`).

    A body carries no link state: its generated code names an exit by
    index, resolved against the running fragment's own stubs.  So one
    body and one function back every fragment over it — the
    retranslation memo's rebuilds of an evicted block, or one block in
    two threads' private caches — each with its own links.
    """

    __slots__ = (
        "code",
        "exits",
        "size",
        "instrs_source",
        "source_tags",
        "translation",
        "entry",
    )

    def __init__(self, code, exits, size, instrs_source, source_tags,
                 translation):
        self.code = code
        self.exits = exits
        self.size = size
        self.instrs_source = instrs_source
        self.source_tags = source_tags
        self.translation = translation
        self.entry = None


class Fragment:
    """A basic block or trace in the code cache: the link and placement
    state of one instance of a :class:`FragmentBody`."""

    __slots__ = (
        "tag",
        "kind",
        "body",
        "exits",
        "cache_addr",
        "size",
        "is_trace_head",
        "head_counter",
        "incoming",
        "deleted",
        "generation",
        "source_spans",
    )

    KIND_BB = "bb"
    KIND_TRACE = "trace"

    def __init__(self, tag, kind):
        self.tag = tag
        self.kind = kind
        # The FragmentBody this fragment was emitted over: its ops,
        # source InstrList, source tags, translation and generated code.
        self.body = None
        self.exits = []  # LinkStubs, one per body exit descriptor
        self.cache_addr = None
        self.size = 0  # encoded size in the simulated code cache
        self.is_trace_head = False
        self.head_counter = 0
        # Incoming LinkStubs pointing at this fragment (for unlinking
        # and fragment replacement).
        self.incoming = []
        self.deleted = False
        self.generation = 0
        # Application-code byte ranges this fragment was translated
        # from: tuple of (start, end) pairs.  Registered with the
        # cache-consistency region map when options.cache_consistency is
        # on; traces carry the union of their constituent blocks' spans.
        self.source_spans = ()

    @property
    def is_trace(self):
        return self.kind == self.KIND_TRACE

    def __repr__(self):
        return "<Fragment %s tag=0x%x %d exits>" % (
            self.kind,
            self.tag,
            len(self.exits),
        )
