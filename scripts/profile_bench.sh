#!/bin/sh
# Per-stage self-time profile of one mdw-bench workload.
#
# Usage (from anywhere inside the repository):
#
#     scripts/profile_bench.sh <workload> [seconds]
#     PROFILE_LINES=1 scripts/profile_bench.sh <workload> [seconds]
#
# <workload> is contended64, idle256 or scale1024 (see BENCHMARK.json);
# [seconds] is the run budget (default 5). Configures mdwbench/ into
# build-prof/ at the repository root as a Release build with debug info
# (-g, which leaves the generated code unchanged) that only links with
# -pg: the library itself is compiled without mcount calls, so the
# flat profile is plain PC sampling with no instrumentation skew (self
# time only; call counts and the call graph stay empty). Runs
# mdw_bench from build-prof/ (gmon.out lands there) with seed 1 and
# tracing off, then prints its result line (as "# result: ...") and
# the top self-time functions of `gprof -b -p` (PROFILE_TOP of them,
# default 25), each as self milliseconds per simulated run (self
# seconds / "attempted") beside its share of the samples, so two
# profiles with different run counts compare directly.
#
# PROFILE_LINES=1 also maps the gmon.out histogram to source lines and
# inline chains (scripts/gmon_lines.py, through `addr2line -i`), in
# the same per-run units: where inside an inlined stage the time goes.

set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <workload> [seconds]" >&2
    exit 2
fi
workload=$1
seconds=${2:-5}
top=${PROFILE_TOP:-25}
lines=${PROFILE_LINES:-0}

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-prof"

cmake -S "$root/mdwbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-g -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)" >&2

cd "$build"
rm -f gmon.out
"$build/mdw_bench" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 > result.out
if [ ! -s gmon.out ]; then
    echo "$0: mdw_bench left no gmon.out" >&2
    exit 1
fi
result=$(tail -n 1 result.out)
echo "# result: $result"
runs=$(echo "$result" | sed -n 's/.*"attempted": *\([0-9][0-9]*\).*/\1/p')
if [ -z "$runs" ] || [ "$runs" -lt 1 ]; then
    echo "$0: no simulated run finished" >&2
    exit 1
fi
# gprof's flat profile (header, then %time, cumulative and self
# seconds, empty call columns, name), re-expressed per run.
gprof -b -p "$build/mdw_bench" gmon.out | awk -v runs="$runs" -v top="$top" '
    /^Flat profile:/ { print; next }
    /^Each sample/ {
        print $0 " " runs " simulated runs."
        print "  ms/run   %time  name (self time per simulated run)"
        next
    }
    $1 ~ /^[0-9.]+$/ && $2 ~ /^[0-9.]+$/ && $3 ~ /^[0-9.]+$/ {
        if (++shown > top)
            exit
        name = $0
        sub(/^ *[0-9.]+ +[0-9.]+ +[0-9.]+ +/, "", name)
        printf "%8.2f  %6.2f  %s\n", $3 * 1000 / runs, $1, name
    }'
if [ "$lines" = 1 ]; then
    python3 "$root/scripts/gmon_lines.py" "$build/mdw_bench" gmon.out \
        "$runs" "$top"
fi
