"""Disassembler: render an image's code with symbols.

Usage::

    python -m repro.tools.disasm program.mc           # MiniC source
    python -m repro.tools.disasm --benchmark crafty   # a suite benchmark
"""

import argparse

from repro.isa.decoder import DecodeError, decode_full
from repro.isa.eflags import eflags_to_string
from repro.tools.run import load_program


def disassemble_image(image, show_eflags=False):
    """Yield formatted disassembly lines for every code section."""
    by_addr = {}
    for name, addr in image.symbols.items():
        by_addr.setdefault(addr, []).append(name)
    for section in image.sections:
        if section.writable:
            continue
        yield "section %s @ 0x%x (%d bytes)" % (
            section.name,
            section.addr,
            len(section.data),
        )
        pc = section.addr
        end = section.addr + len(section.data)
        data = section.data
        while pc < end:
            for symbol in by_addr.get(pc, ()):
                yield "%s:" % symbol
            off = pc - section.addr
            try:
                d = decode_full(data, off, pc=pc)
            except DecodeError:
                yield "  %08x:  %-20s (data)" % (pc, data[off : off + 4].hex(" "))
                pc += 4
                continue
            raw = data[off : off + d.length].hex(" ")
            text = _format(d)
            if show_eflags:
                yield "  %08x:  %-22s %-30s %s" % (
                    pc,
                    raw,
                    text,
                    eflags_to_string(d.eflags),
                )
            else:
                yield "  %08x:  %-22s %s" % (pc, raw, text)
            pc += d.length


def _format(d):
    from repro.isa.opcodes import OP_INFO

    name = OP_INFO[d.opcode].name
    if not d.operands:
        return name
    return "%s %s" % (name, ", ".join(repr(op) for op in d.operands))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", nargs="?", help="MiniC source file")
    parser.add_argument("--benchmark", help="disassemble a suite benchmark")
    parser.add_argument("--eflags", action="store_true", help="show flag effects")
    args = parser.parse_args(argv)
    image = load_program(parser, args.source, args.benchmark)
    for line in disassemble_image(image, show_eflags=args.eflags):
        print(line)


if __name__ == "__main__":
    main()
