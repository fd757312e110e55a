"""Shared fixtures for core runtime tests."""

import pytest

from repro.api.client import Client
from repro.api.dr import (
    dr_decode_fragment,
    dr_insert_clean_call,
    dr_replace_fragment,
)
from repro.core import DynamoRIO, RuntimeOptions
from repro.ir.create import INSTR_CREATE_nop
from repro.loader import Process
from repro.machine.interp import run_native
from repro.minicc import compile_source
from repro.tools.oracle import Column


LOOP_SRC = """
int data[32];
int checksum;
int mix(int x) { return (x * 31 + 7) % 997; }
int main() {
    int i; int round;
    checksum = 0;
    for (round = 0; round < 24; round++) {
        for (i = 0; i < 32; i++) {
            data[i] = mix(data[i] + i + round);
            checksum = checksum + data[i];
        }
    }
    print(checksum);
    return 0;
}
"""

INDIRECT_SRC = """
int table[4];
int h0(int x) { return x + 1; }
int h1(int x) { return x * 3; }
int h2(int x) { return x - 2; }
int h3(int x) { return x ^ 5; }
int main() {
    int i; int acc; int f;
    table[0] = &h0; table[1] = &h1; table[2] = &h2; table[3] = &h3;
    acc = 0;
    for (i = 0; i < 350; i++) {
        f = table[i & 3];
        acc = acc + f(i);
    }
    print(acc);
    return 0;
}
"""


@pytest.fixture(scope="session")
def loop_image():
    return compile_source(LOOP_SRC)


@pytest.fixture(scope="session")
def indirect_image():
    return compile_source(INDIRECT_SRC)


@pytest.fixture(scope="session")
def loop_native(loop_image):
    return run_native(Process(loop_image))


@pytest.fixture(scope="session")
def indirect_native(indirect_image):
    return run_native(Process(indirect_image))


class ChurningClient(Client):
    """Replaces every fragment it sees, again after each flush.

    ``fragment_deleted`` clears the per-tag marker, so when an evicted
    tag is rebuilt the rebuild gets replaced too — replacement and
    eviction keep interleaving for the whole run.
    """

    def __init__(self):
        super().__init__()
        self.replaced = set()
        self.replacements = 0
        self.deletions = 0

    def _hook(self, context, tag, ilist):
        def replace_self(ctx, _tag=tag):
            if _tag in self.replaced:
                return
            il = dr_decode_fragment(ctx, _tag)
            if il is None:
                return
            il.prepend(INSTR_CREATE_nop())
            if dr_replace_fragment(ctx, _tag, il):
                self.replaced.add(_tag)
                self.replacements += 1

        dr_insert_clean_call(ilist, ilist.first(), replace_self)

    basic_block = _hook
    trace = _hook

    def fragment_deleted(self, context, tag):
        self.deletions += 1
        self.replaced.discard(tag)


class NeverHitMemo(dict):
    """Stands in for ``DynamoRIO.bb_memo``: keeps what the runtime stores
    but never serves it, so every rebuild decodes and lowers afresh (the
    forced-miss reference a memo hit must be indistinguishable from)."""

    def get(self, tag, default=None):
        return default


def memo_columns():
    """Oracle columns for memo transparency: the runtime's retranslation
    memo, and a :class:`NeverHitMemo` forced-miss reference."""

    def never_hit(runtime):
        runtime.bb_memo = NeverHitMemo()

    return (Column("memo"), Column("never-hit", setup=never_hit))


def run_under(image, options=None, client=None, cost_model=None):
    dr = DynamoRIO(
        Process(image),
        options=options or RuntimeOptions.with_traces(),
        client=client,
        cost_model=cost_model,
    )
    result = dr.run()
    return dr, result
