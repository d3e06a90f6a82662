#!/usr/bin/env python3
"""Check that an ISA clone of a function uses packed instructions.

Usage:
    check_vectorized.py OBJDUMP LIBRARY FUNCTION CLONE MNEMONIC...

Disassembles LIBRARY with OBJDUMP, finds the body of FUNCTION's CLONE
(e.g. `[clone .avx2]`), and requires every MNEMONIC to appear in it with
a 256-bit (%ymm) operand. Exits 0 when all are present, 1 otherwise.
The AVX2 clone of rng::sample_standard_normals must run its polar
transform (log, divide, sqrt) four lanes wide; a flag or code change
that makes GCC keep it scalar fails here.
"""
import subprocess
import sys


def clone_body(disassembly, function, clone):
    body, inside = [], False
    for line in disassembly.splitlines():
        if line.endswith(">:"):
            inside = function in line and f"[clone .{clone}]" in line
            continue
        if inside:
            if not line.strip():
                break
            body.append(line)
    return body


def main(argv):
    if len(argv) < 6:
        print(__doc__, file=sys.stderr)
        return 1
    objdump, library, function, clone, *mnemonics = argv[1:]
    out = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn", library],
                         check=True, capture_output=True, text=True).stdout
    body = clone_body(out, function, clone)
    if not body:
        print(f"no [clone .{clone}] of {function} in {library}")
        return 1
    missing = [m for m in mnemonics
               if not any(m in line and "%ymm" in line for line in body)]
    print(f"{function} [clone .{clone}]: {len(body)} instructions;"
          f" missing packed: {missing or 'none'}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
