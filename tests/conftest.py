"""Shared fixtures for core runtime tests."""

import pytest

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.interp import run_native
from repro.minicc import compile_source


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


class NeverHitMemo(dict):
    """Stands in for ``DynamoRIO.bb_memo``: keeps what the runtime stores
    but never serves it, so every rebuild decodes and lowers afresh (the
    forced-miss reference a memo hit must be indistinguishable from)."""

    def get(self, tag, default=None):
        return default


def run_under(image, options=None, client=None, cost_model=None):
    dr = DynamoRIO(
        Process(image),
        options=options or RuntimeOptions.with_traces(),
        client=client,
        cost_model=cost_model,
    )
    result = dr.run()
    return dr, result
