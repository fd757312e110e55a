"""Indirect branch lookup (IBL) table.

The in-cache hashtable that translates an application target address to
its code-cache fragment.  The paper calls this lookup "the single
greatest source of overhead in DynamoRIO"; its cycle cost is the
``ibl_lookup`` parameter of the cost model, charged by the executor on
every lookup.

The hot path is ``table.get`` — a single dict probe.  Hit/miss
accounting (stats counters and drtrace events) lives with the caller,
:meth:`repro.core.execute.Executor._ibl`, so the lookup itself carries
no stats/observer plumbing.  On a miss the generated code runs the
exit's client stub code, if any, and leaves through
:meth:`repro.core.execute.Executor._leave`, which charges the context
switch and records the dispatcher exit that ``Executor.run`` returns.

Trace heads are deliberately *not* present: entries reaching a trace
head must come back to the dispatcher so the head's execution counter
advances (the same reason trace heads stay unlinked).
"""


class IndirectBranchTable:
    """tag → Fragment map; ``table`` is the raw probe surface."""

    def __init__(self):
        self.table = {}

    def insert(self, fragment):
        self.table[fragment.tag] = fragment

    def remove(self, fragment):
        existing = self.table.get(fragment.tag)
        if existing is fragment:
            del self.table[fragment.tag]

    def clear(self):
        self.table.clear()
