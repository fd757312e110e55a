"""Offline fragment linter: run the verifier rules over a workload.

Static mode (default) decodes every statically reachable basic block of
the program image and verifies each one — including the drequiv
equivalence rule, for which a pristine block is checked against itself;
dynamic mode (``--client``) actually runs the program under the runtime
with ``options.verify_fragments`` + ``options.verify_equivalence``
enabled, so traces and client-transformed fragments are verified too.
``--equiv`` is a third mode: run the program *without* emit-time
verification, then sweep the final code-cache dump and check every
resident fragment against its source blocks.

Usage::

    python -m repro.tools.lint --benchmark mgrid
    python -m repro.tools.lint program.mc --client inscount
    python -m repro.tools.lint --benchmark mgrid --equiv --client all
    python -m repro.tools.lint --benchmark crafty --client all --rules \
        linearity,levels
    python -m repro.tools.lint --benchmark mgrid --inject   # exits 1

``--inject`` is the negative control.  In static mode it runs one sweep
per registered rule, planting that rule's tabulated violation in every
decoded block, and exits 1 only when *every* rule fired on at least one
block — so CI's ``if lint --inject; then fail; fi`` catches a rule that
silently stopped detecting its own violation class.  In dynamic mode it
plants the classic unsafe meta ``add eax, 1`` in every block via a
wrapping client.

Exit status: 0 when no rule reports an error (for ``--inject``: some
rule failed to fire), 1 otherwise, 2 on usage errors.
"""

import argparse
import sys

from repro.analysis.verifier import (
    VerificationError,
    all_rules,
    verify_fragment,
)
from repro.api.client import Client
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.bb_builder import build_basic_block
from repro.ir.create import (
    INSTR_CREATE_add,
    INSTR_CREATE_mov,
    OPND_CREATE_INT32,
    OPND_CREATE_MEM,
    OPND_CREATE_REG,
)
from repro.ir.instr import Instr, LabelRef
from repro.isa.encoder import encode_instr
from repro.isa.opcodes import Opcode
from repro.isa.operands import PcOperand
from repro.isa.registers import Reg
from repro.loader import Process
from repro.machine.errors import MachineFault

from repro.tools.run import CLIENTS

# Static exploration bound; real images here are far smaller.
MAX_STATIC_BLOCKS = 10000


def _meta(instr):
    from repro.api.dr import instr_set_meta

    return instr_set_meta(instr)


def _make_violation():
    """A meta-instruction that is deliberately unsafe at a block entry:
    writes ``eax`` and all six flags where both are almost surely live."""
    return _meta(
        INSTR_CREATE_add(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1))
    )


# --------------------------------------------------------------- injectors
#
# One tabulated violation per registered rule, planted into an expanded
# block.  Each returns True when it could plant (so the per-rule "fired
# somewhere" bookkeeping skips blocks it had to leave alone).


def _insert_before_last(ilist, instr):
    last = ilist.last()
    if last is None:
        return False
    ilist.insert_before(last, instr)
    return True


def _inject_linearity(ilist, tag):
    # A meta jmp whose label was never added to the list.
    orphan = Instr.label()
    ilist.append(_meta(Instr.create(Opcode.JMP, LabelRef(orphan))))
    return True


def _inject_levels(ilist, tag):
    # A Level-0 bundle whose bytes contain a control transfer.
    raw = encode_instr(Opcode.JMP, (PcOperand(tag),), pc=0)
    ilist.append(Instr.bundle(raw, 0))
    return True


def _inject_eflags(ilist, tag):
    # Meta flag-writer right before the exit CTI: the exit is a liveness
    # barrier, so the application's flags are live there by assumption.
    return _insert_before_last(
        ilist,
        _meta(INSTR_CREATE_add(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1))),
    )


def _inject_scratch(ilist, tag):
    # Meta register-writer (no flag effects) before the exit barrier.
    return _insert_before_last(
        ilist,
        _meta(INSTR_CREATE_mov(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1))),
    )


def _inject_transparency(ilist, tag):
    # Meta store through an application register: never provably
    # runtime-private, so always a transparency violation.
    return _insert_before_last(
        ilist,
        _meta(
            INSTR_CREATE_mov(
                OPND_CREATE_MEM(base=Reg.EAX), OPND_CREATE_INT32(1)
            )
        ),
    )


def _inject_equivalence(ilist, tag):
    # A NON-meta store the application never performed: invisible to the
    # structural rules (it is ordinary application-looking code, not a
    # marked meta instruction) but a semantic divergence — an extra
    # entry in the store log — that drequiv must catch at the block's
    # first observable.
    first = ilist.first()
    if first is None:
        return False
    ilist.insert_before(
        first,
        INSTR_CREATE_mov(
            OPND_CREATE_MEM(base=Reg.ESP, disp=-64), OPND_CREATE_INT32(1)
        ),
    )
    return True


INJECTORS = {
    "linearity": _inject_linearity,
    "levels": _inject_levels,
    "eflags-safety": _inject_eflags,
    "scratch-registers": _inject_scratch,
    "transparency": _inject_transparency,
    "equivalence": _inject_equivalence,
}


def _successor_tags(ilist):
    tags = []
    for instr in ilist:
        if instr.is_bundle or not instr.is_cti():
            continue
        target = instr.target if instr.num_srcs() else None
        if isinstance(target, PcOperand):
            tags.append(target.pc)
        elif isinstance(target, LabelRef):
            continue
        if instr.is_call() and instr.raw_bits_valid() and instr.raw_pc is not None:
            tags.append(instr.raw_pc + len(instr.raw))
    return tags


class Report:
    def __init__(self, rules, max_print):
        self.rules = rules
        self.max_print = max_print
        self.fragments = 0
        self.errors = 0
        self.warnings = 0
        self._printed = 0

    def add(self, where, diagnostics):
        self.fragments += 1
        for d in diagnostics:
            if d.is_error:
                self.errors += 1
            else:
                self.warnings += 1
            if self._printed < self.max_print:
                print("%s: %s" % (where, d.format()))
                self._printed += 1

    def summary(self):
        suppressed = (self.errors + self.warnings) - self._printed
        if suppressed > 0:
            print("... %d further diagnostics suppressed" % suppressed)
        print(
            "lint: %d fragment(s), %d rule(s), %d error(s), %d warning(s)"
            % (self.fragments, len(all_rules() if self.rules is None else self.rules),
               self.errors, self.warnings)
        )


def _static_blocks(image):
    """Yield ``(tag, memory)`` for every statically reachable block."""
    process = Process(image)
    memory = process.memory
    worklist = [process.entry]
    seen = set()
    while worklist and len(seen) < MAX_STATIC_BLOCKS:
        tag = worklist.pop()
        if tag in seen:
            continue
        seen.add(tag)
        try:
            ilist = build_basic_block(memory, tag)
        except MachineFault:
            # Synthetic fall-through jumps may point past a hlt into
            # data; such targets are simply not code.
            continue
        worklist.extend(_successor_tags(ilist))
        yield tag, memory


def _lint_static(image, rules, report):
    for tag, memory in _static_blocks(image):
        ilist = build_basic_block(memory, tag)
        report.add(
            "bb@0x%x" % tag,
            verify_fragment(
                ilist, kind="bb", rules=rules, tag=tag,
                source_tags=(tag,), memory=memory,
            ),
        )


def _lint_static_inject(image, rules, report):
    """Per-rule negative control: one sweep per registered rule.

    Returns True when every selected rule with an injector fired on at
    least one block (the expected outcome — callers then exit 1, which
    CI inverts)."""
    selected = [r.rule_id for r in all_rules()] if rules is None else rules
    blocks = list(_static_blocks(image))
    all_fired = True
    for rule_id in selected:
        injector = INJECTORS.get(rule_id)
        if injector is None:
            print("inject: no injector tabulated for rule %r" % rule_id)
            all_fired = False
            continue
        fired = planted = 0
        for tag, memory in blocks:
            ilist = build_basic_block(memory, tag)
            ilist.expand_bundles()
            if not injector(ilist, tag):
                continue
            planted += 1
            diagnostics = verify_fragment(
                ilist, kind="bb", rules=[rule_id], tag=tag,
                source_tags=(tag,), memory=memory,
            )
            if any(d.is_error and d.rule == rule_id for d in diagnostics):
                fired += 1
                report.add("bb@0x%x" % tag, [d for d in diagnostics if d.is_error][:1])
        print(
            "inject: rule %-14s fired on %d/%d planted block(s)"
            % (rule_id, fired, planted)
        )
        if not fired:
            all_fired = False
    return all_fired


class _InjectingClient(Client):
    """Wraps a client (or None) to plant a violation in every block."""

    def __init__(self, inner):
        super().__init__()
        self._inner = inner

    def attach(self, runtime):
        super().attach(runtime)
        if self._inner is not None:
            self._inner.attach(runtime)

    def init(self):
        if self._inner is not None:
            self._inner.init()

    def exit(self):
        if self._inner is not None:
            self._inner.exit()

    def thread_init(self, context):
        if self._inner is not None:
            self._inner.thread_init(context)

    def thread_exit(self, context):
        if self._inner is not None:
            self._inner.thread_exit(context)

    def basic_block(self, context, tag, ilist):
        if self._inner is not None:
            self._inner.basic_block(context, tag, ilist)
        ilist.expand_bundles()
        first = ilist.first()
        if first is not None:
            ilist.insert_before(first, _make_violation())

    def trace(self, context, tag, ilist):
        if self._inner is not None:
            self._inner.trace(context, tag, ilist)

    def fragment_deleted(self, context, tag):
        if self._inner is not None:
            self._inner.fragment_deleted(context, tag)

    def end_trace(self, context, trace_tag, next_tag):
        if self._inner is not None:
            return self._inner.end_trace(context, trace_tag, next_tag)
        return super().end_trace(context, trace_tag, next_tag)


def _make_client(image, client_name):
    if client_name == "shepherd":
        from repro.clients import ProgramShepherding

        return ProgramShepherding(image=image)
    return CLIENTS[client_name]()


def _lint_dynamic(image, client_name, rules, report, inject):
    client = _make_client(image, client_name)
    if inject:
        client = _InjectingClient(client)
    options = RuntimeOptions.with_traces()
    options.verify_fragments = True
    options.verify_equivalence = True
    runtime = DynamoRIO(Process(image), options=options, client=client)
    try:
        runtime.run()
    except VerificationError:
        # The error diagnostics are already recorded on
        # runtime.verifier_diagnostics by the emit gate; fall through so
        # they are reported exactly once.
        pass
    if runtime.verifier_diagnostics:
        report.add("collected", runtime.verifier_diagnostics)
    else:
        report.fragments += runtime.stats.bbs_built + runtime.stats.traces_built


def _lint_equiv(image, client_name, report):
    """Run without emit-time verification, then statically sweep the
    final code-cache dump with the equivalence rule."""
    client = _make_client(image, client_name) if client_name else None
    options = RuntimeOptions.with_traces()
    runtime = DynamoRIO(Process(image), options=options, client=client)
    runtime.run()
    checked = 0
    for thread in runtime.threads:
        for cache in (thread.bb_cache, thread.trace_cache):
            for tag in sorted(cache.fragments):
                fragment = cache.fragments[tag]
                if fragment.deleted or fragment.instrs_source is None:
                    continue
                diagnostics = verify_fragment(
                    fragment.instrs_source,
                    kind=fragment.kind,
                    rules=["equivalence"],
                    tag=fragment.tag,
                    source_tags=fragment.source_tags,
                    memory=runtime.memory,
                )
                checked += 1
                report.add("%s@0x%x" % (fragment.kind, tag), diagnostics)
    print("equiv: %d cache-resident fragment(s) checked" % checked)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("source", nargs="?", help="MiniC source file")
    parser.add_argument("--benchmark", help="lint a suite benchmark instead")
    parser.add_argument("--scale", default="test")
    parser.add_argument(
        "--client",
        default=None,
        choices=sorted(CLIENTS),
        help="run dynamically under this client instead of static decode",
    )
    parser.add_argument(
        "--equiv",
        action="store_true",
        help="run the program, then equivalence-check the final code "
        "cache dump (combine with --client to check transformed "
        "fragments)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids (default: all registered rules)",
    )
    parser.add_argument(
        "--inject",
        action="store_true",
        help="plant tabulated violations (negative control); exits 1 "
        "only when every rule caught its own violation",
    )
    parser.add_argument(
        "--max-diagnostics", type=int, default=50, metavar="N",
        help="print at most N diagnostics (default 50)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print("%-18s %s" % (rule.rule_id, rule.description))
        return 0

    if args.equiv and args.inject:
        parser.error("--equiv and --inject are separate modes")

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        known = {rule.rule_id for rule in all_rules()}
        for rule_id in rules:
            if rule_id not in known:
                parser.error(
                    "unknown rule %r (see --list-rules)" % rule_id
                )

    if args.benchmark:
        from repro.workloads import all_benchmarks, load_benchmark

        names = [b.name for b in all_benchmarks()]
        if args.benchmark not in names:
            parser.error(
                "unknown benchmark %r (choices: %s)"
                % (args.benchmark, ", ".join(sorted(names)))
            )
        image = load_benchmark(args.benchmark, args.scale)
    elif args.source:
        from repro.minicc import compile_source

        try:
            with open(args.source) as f:
                src = f.read()
        except OSError as exc:
            parser.error("cannot read %s: %s" % (args.source, exc.strerror))
        image = compile_source(src)
    else:
        parser.error("provide a source file or --benchmark")

    report = Report(rules, args.max_diagnostics)
    if args.equiv:
        _lint_equiv(image, args.client, report)
    elif args.client is not None:
        _lint_dynamic(image, args.client, rules, report, args.inject)
    elif args.inject:
        all_fired = _lint_static_inject(image, rules, report)
        report.summary()
        return 1 if all_fired else 0
    else:
        _lint_static(image, rules, report)
    report.summary()
    return 1 if report.errors else 0


if __name__ == "__main__":
    sys.exit(main())
