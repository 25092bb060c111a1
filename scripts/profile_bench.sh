#!/bin/sh
# Per-stage self-time profile of one mdw-bench workload.
#
# Usage (from anywhere inside the repository):
#
#     scripts/profile_bench.sh <workload> [seconds]
#
# <workload> is contended64, idle256 or scale1024 (see BENCHMARK.json);
# [seconds] is the run budget (default 5). Configures mdwbench/ into
# build-prof/ at the repository root as a Release build that only
# links with -pg: the library itself is compiled without mcount calls,
# so the flat profile is plain PC sampling with no instrumentation
# skew (self time only; call counts and the call graph stay empty).
# Runs mdw_bench from build-prof/ (gmon.out lands there) with seed 1
# and tracing off, then prints its result line (as "# result: ...";
# "attempted" is the number of simulated runs, to turn self seconds
# into a per-run cost) and the top self-time functions of
# `gprof -b -p` (PROFILE_TOP of them, default 25).

set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <workload> [seconds]" >&2
    exit 2
fi
workload=$1
seconds=${2:-5}
top=${PROFILE_TOP:-25}

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-prof"

cmake -S "$root/mdwbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)" >&2

cd "$build"
rm -f gmon.out
"$build/mdw_bench" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 > result.out
if [ ! -s gmon.out ]; then
    echo "$0: mdw_bench left no gmon.out" >&2
    exit 1
fi
echo "# result: $(tail -n 1 result.out)"
# Header (5 lines) plus the top entries.
gprof -b -p "$build/mdw_bench" gmon.out | head -n $((top + 5))
