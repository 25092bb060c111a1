#!/usr/bin/env python3
"""Map a gmon.out PC histogram to source lines and inline chains.

Usage:

    scripts/gmon_lines.py <binary> <gmon.out> <runs> [top]

<binary> must carry debug info (-g); <runs> is the number of simulated
runs the profile covers, so every figure is self time per run and two
profiles with different run counts compare directly. Prints two
tables, each of the [top] (default 25) heaviest entries: samples by
innermost source line, and by inline chain (the line, then each line
it was inlined into, as `addr2line -i` reports them).

`gprof -l` does the first half of this itself but aborts on the
simulator's binaries ("somebody miscounted"), so this reads the
histogram records directly. glibc writes PIE addresses relative to the
load base, which is what addr2line expects.
"""

import collections
import os
import struct
import subprocess
import sys

HIST_TAG = 0
CALL_GRAPH_TAG = 1
BB_COUNT_TAG = 2


def read_histogram(path):
    """Samples per PC (bin start) and the sampling rate in Hz."""
    data = open(path, "rb").read()
    if data[:4] != b"gmon":
        sys.exit(f"{path}: not a gmon.out file")
    pos = 20  # magic, version, 12 spare bytes
    samples = collections.Counter()
    rate = 0
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == HIST_TAG:
            low, high, bins, rate = struct.unpack_from("<QQII", data, pos)
            pos += 24 + 16  # addresses, sizes, dimension name and char
            counts = struct.unpack_from(f"<{bins}H", data, pos)
            pos += 2 * bins
            scale = (high - low) / bins
            for i, count in enumerate(counts):
                if count:
                    samples[low + int(i * scale)] += count
        elif tag == CALL_GRAPH_TAG:
            pos += 8 + 8 + 4  # from pc, self pc, count
        elif tag == BB_COUNT_TAG:
            (records,) = struct.unpack_from("<I", data, pos)
            pos += 4 + records * 16
        else:
            sys.exit(f"{path}: unknown record tag {tag}")
    return samples, rate


def inline_chains(binary, pcs):
    """For each PC, its frames innermost first as (function, line)."""
    query = "".join(f"{pc:#x}\n" for pc in pcs)
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input=query, capture_output=True, text=True, check=True).stdout
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    chains = {}
    pc = None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            pc = int(lines[i], 16)
            chains[pc] = []
            i += 1
            continue
        function, where = lines[i], lines[i + 1]
        where = where.split(" (discriminator")[0]
        if where.startswith(root + os.sep):
            where = where[len(root) + 1:]
        chains[pc].append((function, where))
        i += 2
    return chains


def print_table(title, counter, total, per_sample_ms, runs, top):
    print(f"\n{title}")
    print("  ms/run   %time  samples  where")
    for key, count in counter.most_common(top):
        print(f"{count * per_sample_ms / runs:8.2f}  {100 * count / total:6.2f}"
              f"  {count:7d}  {key}")


def main():
    if len(sys.argv) not in (4, 5):
        sys.exit("usage: gmon_lines.py <binary> <gmon.out> <runs> [top]")
    binary, gmon, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
    top = int(sys.argv[4]) if len(sys.argv) == 5 else 25
    samples, rate = read_histogram(gmon)
    total = sum(samples.values())
    if total == 0 or rate == 0 or runs < 1:
        sys.exit(f"{gmon}: no samples to map")
    chains = inline_chains(binary, sorted(samples))
    by_line = collections.Counter()
    by_chain = collections.Counter()
    for pc, count in samples.items():
        frames = chains.get(pc) or [("??", "??:0")]
        function, where = frames[0]
        by_line[f"{where}  {function}"] += count
        by_chain[" <- ".join(w for _, w in frames) +
                 f"  {frames[-1][0]}"] += count
    per_sample_ms = 1000.0 / rate
    print(f"# {total} samples at {rate} Hz over {runs} simulated runs")
    print_table("Self time by source line (innermost frame):", by_line,
                total, per_sample_ms, runs, top)
    print_table("Self time by inline chain (innermost first; "
                "then the outermost function):", by_chain, total,
                per_sample_ms, runs, top)


if __name__ == "__main__":
    main()
