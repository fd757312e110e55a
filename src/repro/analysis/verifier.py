"""Fragment verifier: static checks over InstrLists headed for the cache.

The client API is only safe under invariants the runtime never
mechanically enforces: fragments are linear single-entry/multiple-exit
streams, client-inserted code must respect eflags and register liveness
(the paper's Figure 3 discipline), and meta-instructions must stay
transparent to the application.  A buggy client — or a bug in trace
stitching — otherwise corrupts the code cache silently.

This module is the framework; the checks themselves live in
:mod:`repro.analysis.rules`, registered through :func:`register_rule` so
out-of-tree clients can add their own.  Each rule walks one fragment and
yields structured :class:`Diagnostic` objects (rule id, severity,
instruction, message).

Entry points:

* :func:`verify_fragment` — run rules, return diagnostics;
* :func:`assert_fragment_valid` — raise :class:`VerificationError` when
  any diagnostic is an error (the ``options.verify_fragments`` debug
  mode in :mod:`repro.core.emit`);
* ``python -m repro.tools.lint`` — the offline report over a workload.
"""

from repro.analysis.liveness import live_eflags, live_registers


class Severity:
    """Diagnostic severities, comparable by :func:`is_error`."""

    ERROR = "error"
    WARNING = "warning"


class Diagnostic:
    """One finding: a rule, a severity, an instruction, a message.

    ``tag`` (the fragment's application tag) and ``window`` (a short
    disassembly excerpt around the offending instruction) are attached
    by :func:`verify_fragment` when available, so a failure is
    actionable without re-running under a debugger.
    """

    __slots__ = ("rule", "severity", "instr", "message", "index", "tag", "window")

    def __init__(self, rule, severity, instr, message, index=None):
        self.rule = rule
        self.severity = severity
        self.instr = instr
        self.message = message
        self.index = index  # position within the fragment, labels included
        self.tag = None
        self.window = None

    @property
    def is_error(self):
        return self.severity == Severity.ERROR

    def format(self):
        where = "" if self.index is None else "@%d " % self.index
        tag = "" if self.tag is None else "tag=0x%x " % self.tag
        head = "%s[%s] %s%s%s" % (self.rule, self.severity, tag, where, self.message)
        if self.window:
            head += "\n" + self.window
        return head

    def __repr__(self):
        return "<Diagnostic %s>" % self.format()


class VerificationError(Exception):
    """A fragment failed verification; ``diagnostics`` holds the errors."""

    def __init__(self, diagnostics, where=None):
        self.diagnostics = list(diagnostics)
        self.where = where
        lines = [d.format() for d in self.diagnostics]
        prefix = "fragment verification failed"
        if where:
            prefix += " (%s)" % where
        super().__init__("%s:\n  %s" % (prefix, "\n  ".join(lines)))


class FragmentContext:
    """Shared, lazily computed state handed to every rule.

    ``kind`` is ``"bb"``, ``"trace"``, or ``"stub"``.  ``is_runtime_addr``
    is an optional predicate classifying absolute addresses as
    runtime-private (transparent for clients to write) versus
    application memory; without it the transparency rule gives absolute
    writes the benefit of the doubt, which is what the offline linter
    wants.
    """

    def __init__(self, ilist, kind="bb", is_runtime_addr=None, tag=None,
                 source_tags=None, memory=None):
        self.ilist = ilist
        self.kind = kind
        self.is_runtime_addr = is_runtime_addr
        self.tag = tag
        # Equivalence-rule inputs: the ordered application block tags the
        # fragment translates, and the memory to rebuild them from.  The
        # equivalence rule is a no-op when memory is None.
        self.source_tags = source_tags
        self.memory = memory
        self.nodes = list(ilist)
        self.position = {id(n): i for i, n in enumerate(self.nodes)}
        self._reg_live = None
        self._flag_live = None

    @property
    def reg_liveness(self):
        if self._reg_live is None:
            self._reg_live = live_registers(self.ilist)
        return self._reg_live

    @property
    def flag_liveness(self):
        if self._flag_live is None:
            self._flag_live = live_eflags(self.ilist)
        return self._flag_live

    @staticmethod
    def is_clean_call(instr):
        return isinstance(instr.note, dict) and bool(instr.note.get("clean_call"))

    @staticmethod
    def is_meta(instr):
        return bool(instr.is_meta)

    def note(self, instr, key):
        if isinstance(instr.note, dict):
            return instr.note.get(key)
        return None


class Rule:
    """Base class for verifier rules.

    Subclasses set ``rule_id``/``description`` and implement
    :meth:`check`, yielding diagnostics (most easily through the
    :meth:`error`/:meth:`warning` helpers).
    """

    rule_id = None
    description = ""

    def check(self, ctx):
        raise NotImplementedError
        yield  # pragma: no cover

    def error(self, ctx, instr, message):
        return Diagnostic(
            self.rule_id,
            Severity.ERROR,
            instr,
            message,
            index=ctx.position.get(id(instr)),
        )

    def warning(self, ctx, instr, message):
        return Diagnostic(
            self.rule_id,
            Severity.WARNING,
            instr,
            message,
            index=ctx.position.get(id(instr)),
        )


_REGISTRY = {}


def register_rule(cls):
    """Class decorator: instantiate and register a :class:`Rule`.

    Registration order is preserved; a rule id may be registered once.
    """
    if not cls.rule_id:
        raise ValueError("rule %r needs a rule_id" % (cls,))
    if cls.rule_id in _REGISTRY:
        raise ValueError("duplicate rule id %r" % (cls.rule_id,))
    _REGISTRY[cls.rule_id] = cls()
    return cls


def all_rules():
    """The registered rules, in registration order."""
    return list(_REGISTRY.values())


def get_rule(rule_id):
    return _REGISTRY[rule_id]


def _disassembly_window(ctx, index, radius=2):
    """A short, marker-annotated disassembly excerpt around ``index``."""
    lo = max(0, index - radius)
    hi = min(len(ctx.nodes), index + radius + 1)
    lines = []
    for i in range(lo, hi):
        node = ctx.nodes[i]
        try:
            text = node.disassemble()
        except Exception:
            text = repr(node)
        marker = ">>" if i == index else "  "
        lines.append("    %s @%-3d %s" % (marker, i, text))
    return "\n".join(lines)


def verify_fragment(ilist, kind="bb", rules=None, is_runtime_addr=None,
                    tag=None, source_tags=None, memory=None):
    """Run verifier rules over one fragment's InstrList.

    Returns the diagnostics sorted by instruction position (errors
    before warnings at the same instruction).  ``rules`` restricts the
    run to an iterable of rule ids.  ``tag``/``source_tags``/``memory``
    feed the equivalence rule and the diagnostic headers; the fragment
    tag and a disassembly window around the offending instruction are
    attached to every finding.
    """
    ctx = FragmentContext(
        ilist, kind=kind, is_runtime_addr=is_runtime_addr, tag=tag,
        source_tags=source_tags, memory=memory,
    )
    selected = all_rules() if rules is None else [get_rule(r) for r in rules]
    diagnostics = []
    for rule in selected:
        diagnostics.extend(rule.check(ctx))
    diagnostics.sort(
        key=lambda d: (
            d.index if d.index is not None else len(ctx.nodes),
            d.severity != Severity.ERROR,
            d.rule,
        )
    )
    for d in diagnostics:
        if d.tag is None:
            d.tag = tag
        if d.window is None and d.index is not None:
            d.window = _disassembly_window(ctx, d.index)
    return diagnostics


def assert_fragment_valid(ilist, kind="bb", rules=None, is_runtime_addr=None,
                          where=None, tag=None, source_tags=None, memory=None):
    """Verify and raise :class:`VerificationError` on any error.

    Returns the full diagnostic list (which may still carry warnings)
    when the fragment passes.
    """
    diagnostics = verify_fragment(
        ilist, kind=kind, rules=rules, is_runtime_addr=is_runtime_addr,
        tag=tag, source_tags=source_tags, memory=memory,
    )
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        raise VerificationError(errors, where=where)
    return diagnostics


# Importing the rules package registers the built-in rules.  Placed last
# so the rule modules can import the names defined above.
from repro.analysis import rules as _builtin_rules  # noqa: E402,F401
