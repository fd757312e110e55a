"""The Table 1 ordering must hold: each mechanism strictly improves."""

from repro.core import RuntimeOptions
from repro.loader import Process
from repro.machine.interp import run_emulated

from tests.core.conftest import run_under


def _cycles(image, options):
    _dr, result = run_under(image, options)
    return result.cycles


def test_mechanism_ordering(loop_image, loop_native):
    emulation = run_emulated(Process(loop_image)).cycles
    bb_cache = _cycles(loop_image, RuntimeOptions.bb_cache_only())
    direct = _cycles(loop_image, RuntimeOptions.with_direct_links())
    indirect = _cycles(loop_image, RuntimeOptions.with_indirect_links())
    traces = _cycles(loop_image, RuntimeOptions.with_traces())
    native = loop_native.cycles

    assert emulation > bb_cache > direct > indirect
    assert traces < direct
    assert native < traces  # some overhead always remains on small runs

    # Rough factors from the paper's Table 1.
    assert emulation / native > 50  # "several hundred" at scale
    assert bb_cache / native > 5
    assert indirect / native < 4


def test_bb_cache_counts_context_switch_per_block(loop_image):
    _dr, result = run_under(loop_image, RuntimeOptions.bb_cache_only())
    # Without links, every block exit is a context switch.
    assert result.events["context_switches"] > 1000


def test_direct_links_remove_context_switches(loop_image):
    _dr, unlinked = run_under(loop_image, RuntimeOptions.bb_cache_only())
    _dr, linked = run_under(loop_image, RuntimeOptions.with_direct_links())
    assert linked.events["context_switches"] < unlinked.events["context_switches"] / 4
    assert linked.events["direct_links"] > 0


def test_indirect_links_use_hashtable(indirect_image):
    _dr, result = run_under(indirect_image, RuntimeOptions.with_indirect_links())
    assert result.events["ibl_hits"] > 500
    assert result.events["context_switches"] < 100


def test_traces_inline_indirect_targets(loop_image):
    _dr, result = run_under(loop_image, RuntimeOptions.with_traces())
    assert result.events["traces_built"] > 0
    assert result.events["inline_check_hits"] > 0


def test_trace_threshold_controls_trace_creation(loop_image):
    opts = RuntimeOptions.with_traces()
    opts.trace_threshold = 10 ** 9  # unreachable
    _dr, result = run_under(loop_image, opts)
    assert result.events["traces_built"] == 0
