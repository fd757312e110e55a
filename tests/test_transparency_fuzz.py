"""Property-based end-to-end transparency fuzzing.

Hypothesis generates random (terminating-by-construction) MiniC
programs; each must produce byte-identical output natively and under
the full runtime with all four optimization clients applied, checked
by the differential oracle (``repro.tools.oracle``).  This is
the strongest single property in the repository: it exercises the
compiler, the ISA, both executors, the trace builder, and every client
transformation at once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clients import make_all_optimizations
from repro.core import RuntimeOptions
from repro.minicc import compile_source
from repro.tools.oracle import Cell, check

pytestmark = pytest.mark.slow

VARS = ["a", "b", "c", "d"]

atoms = st.one_of(
    st.integers(min_value=0, max_value=1000).map(str),
    st.sampled_from(VARS),
)


@st.composite
def expressions(draw, depth=2):
    if depth == 0:
        return draw(atoms)
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", ">>", "<<"]))
    left = draw(expressions(depth=depth - 1))
    right = draw(expressions(depth=depth - 1))
    if op == "<<":
        right = draw(st.integers(min_value=0, max_value=8).map(str))
    if op == ">>":
        right = draw(st.integers(min_value=0, max_value=8).map(str))
    return "(%s %s %s)" % (left, op, right)


@st.composite
def statements(draw, depth=2):
    kind = draw(
        st.sampled_from(
            ["assign", "incdec", "if", "loop", "compound"]
            if depth > 0
            else ["assign", "incdec"]
        )
    )
    if kind == "assign":
        var = draw(st.sampled_from(VARS))
        return "%s = %s;" % (var, draw(expressions()))
    if kind == "incdec":
        var = draw(st.sampled_from(VARS))
        return "%s%s;" % (var, draw(st.sampled_from(["++", "--"])))
    if kind == "if":
        cond_op = draw(st.sampled_from(["<", ">", "==", "!=", "<=", ">="]))
        cond = "%s %s %s" % (
            draw(st.sampled_from(VARS)),
            cond_op,
            draw(atoms),
        )
        then = draw(statements(depth=depth - 1))
        if draw(st.booleans()):
            other = draw(statements(depth=depth - 1))
            return "if (%s) { %s } else { %s }" % (cond, then, other)
        return "if (%s) { %s }" % (cond, then)
    if kind == "loop":
        # bounded by construction: each nesting depth has its own loop
        # variable, which no other statement reads or writes
        bound = draw(st.integers(min_value=1, max_value=12))
        body = draw(statements(depth=depth - 1))
        return "for (t{0} = 0; t{0} < {1}; t{0}++) {{ {2} }}".format(
            depth, bound, body
        )
    body = [draw(statements(depth=depth - 1)) for _ in range(2)]
    return " ".join(body)


@st.composite
def programs(draw):
    seed_values = [draw(st.integers(0, 9999)) for _ in VARS]
    inits = "\n    ".join(
        "%s = %d;" % (var, value) for var, value in zip(VARS, seed_values)
    )
    body = "\n    ".join(draw(statements()) for _ in range(4))
    prints = "\n    ".join("print(%s);" % var for var in VARS)
    return (
        "int main() {\n"
        "    int a; int b; int c; int d; int t1; int t2;\n"
        "    %s\n    %s\n    %s\n    return 0;\n}"
        % (inits, body, prints)
    )


def _assert_transparent(source, options, client=lambda: None):
    verdict = check(Cell(compile_source(source), options=options, client=client))
    assert verdict.ok, "%s\n%s" % (source, verdict)


@given(programs())
@settings(max_examples=40, deadline=None)
def test_random_programs_transparent_under_all_clients(source):
    # trace_threshold=3 forces trace building even on tiny runs.
    _assert_transparent(
        source, lambda: RuntimeOptions(trace_threshold=3),
        make_all_optimizations,
    )


@given(programs())
@settings(max_examples=15, deadline=None)
def test_random_programs_transparent_under_bb_cache(source):
    _assert_transparent(source, RuntimeOptions.bb_cache_only)
