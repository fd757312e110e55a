"""Table 2: time and memory to decode+encode basic blocks per level.

Paper values (average across SPEC2000 basic blocks)::

    Level   Time (us)   Memory (bytes)
    0          2.12          64.00
    1         12.42         628.95
    2         13.01         629.07
    3         19.10         791.55
    4         61.79         791.55

The claims to reproduce: time strictly monotone in level with a large
(order-of-magnitude) spread between Level 0 and Level 4; memory jumping
at Level 1 (per-instruction nodes) and again at Level 3 (operand
arrays), flat from 3 to 4.

The blocks measured are all static basic blocks of the whole workload
suite, discovered by scanning each image's code section.
"""

import gc
import time

from repro.ir.instr import Instr
from repro.ir.instrlist import InstrList
from repro.isa.decoder import decode_boundary, decode_opcode
from repro.isa.opcodes import OP_INFO
from repro.loader import Process
from repro.workloads import all_benchmarks, load_benchmark

PAPER = {
    0: (2.12, 64.00),
    1: (12.42, 628.95),
    2: (13.01, 629.07),
    3: (19.10, 791.55),
    4: (61.79, 791.55),
}


def collect_blocks(scale="test", limit=None):
    """All static basic blocks (raw bytes + start pc) across the suite."""
    blocks = []
    for bench in all_benchmarks():
        image = load_benchmark(bench.name, scale)
        process = Process(image)
        view = process.memory.view()
        for section in image.sections:
            if section.writable:
                continue
            pc = section.addr
            end = section.addr + len(section.data)
            start = pc
            while pc < end:
                try:
                    opcode, _eflags, length = decode_opcode(view, pc)
                except Exception:
                    break
                pc += length
                if OP_INFO[opcode].is_cti:
                    blocks.append((start, bytes(view[start:pc])))
                    start = pc
            if pc > start:
                blocks.append((start, bytes(view[start:pc])))
    if limit is not None:
        blocks = blocks[:limit]
    return blocks


def process_block_at_level(raw, pc, level):
    """Decode a block's bytes to ``level`` and encode it back.

    Returns the built InstrList (so memory can be measured).  Mirrors
    the paper's measurement: decode to the level, then produce machine
    code again.
    """
    if level == 0:
        il = InstrList([Instr.bundle(raw, pc)])
    else:
        il = InstrList()
        off = 0
        while off < len(raw):
            n = decode_boundary(raw, off)
            instr = Instr.from_raw(raw[off : off + n], pc + off)
            if level >= 2:
                instr.opcode  # Level-2 decode
            if level >= 3:
                instr.srcs  # full decode
            if level == 4:
                # invalidate raw bits: the block must be re-encoded
                # through the full template search
                instr._invalidate_raw()
            il.append(instr)
            off += n
    il.encode(start_pc=pc)
    return il


def run(scale="test", repeats=3, limit=400):
    """Returns {level: (avg_time_us, avg_memory_bytes)}."""
    blocks = collect_blocks(scale, limit=limit)
    results = {}
    for level in range(5):
        built = [process_block_at_level(raw, pc, level) for pc, raw in blocks]
        memory = sum(il.memory_footprint() for il in built) / len(built)
        best = float("inf")
        # Timed with the cyclic collector off, as ``timeit`` does: a full
        # collection of whatever else the process holds (a test
        # session's heap) is not this level's cost.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                t0 = time.perf_counter()
                for pc, raw in blocks:
                    process_block_at_level(raw, pc, level)
                elapsed = time.perf_counter() - t0
                best = min(best, elapsed)
        finally:
            if gc_enabled:
                gc.enable()
        avg_us = best / len(blocks) * 1e6
        results[level] = (avg_us, memory)
    return results


def main(scale="test"):
    results = run(scale)
    print("Table 2: decode+encode cost per representation level")
    print("%5s %18s %24s" % ("Level", "Time us (paper)", "Memory bytes (paper)"))
    for level in range(5):
        t, m = results[level]
        pt, pm = PAPER[level]
        print("%5d %9.2f (%6.2f) %12.2f (%8.2f)" % (level, t, pt, m, pm))
    return results


if __name__ == "__main__":
    main()
