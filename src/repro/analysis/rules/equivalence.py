"""Rule: the fragment is a faithful translation of its source blocks.

Thin adapter over :mod:`repro.analysis.equiv` (drequiv).  The symbolic
check needs two inputs the structural rules don't: the ordered source
block tags and the application memory to rebuild them from.  When either
is missing from the :class:`~repro.analysis.verifier.FragmentContext`
(the offline linter's static sweep over raw decoded blocks, or a unit
test that built an InstrList from nothing) the rule is a no-op rather
than a false positive.  Exit stubs are runtime glue with no application
counterpart, so ``kind == "stub"`` is skipped too.

Soundness split: drequiv *erases* meta instructions wholesale and trusts
the eflags-safety, scratch, and transparency rules to prove the erasure
valid (dead flags, dead registers, no application stores).  It runs
alongside those rules — ``verify_fragments`` runs every rule — for the
full proof.
"""

from repro.analysis import equiv
from repro.analysis.verifier import Rule, register_rule


@register_rule
class EquivalenceRule(Rule):
    rule_id = "equivalence"
    description = (
        "fragment's symbolic summary matches its source application blocks"
    )

    def check(self, ctx):
        if ctx.kind == "stub" or ctx.memory is None or not ctx.source_tags:
            return
        problems = equiv.check_equivalence(
            ctx.ilist,
            ctx.source_tags,
            ctx.memory,
            nodes=ctx.nodes,
        )
        for p in problems:
            if p.severity == equiv.ERROR:
                yield self.error(ctx, p.instr, p.message)
            else:
                yield self.warning(ctx, p.instr, p.message)
