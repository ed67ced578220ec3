#!/usr/bin/env bash
# Run the criterion benches and record a machine-readable summary so the
# perf trajectory is tracked across PRs.
#
# The bench fixtures are seeded (fixed seeds baked into
# crates/bench/src/lib.rs and the bench files), so runs are directly
# comparable across commits on the same machine.
#
# Usage:
#   scripts/bench.sh                  # all benches
#   scripts/bench.sh --bench lpm     # one bench binary (any cargo bench args)
#
# Output: BENCH_<date>.json in the repository root, of the form
#   { "date": ..., "git": ..., "machine": {...}, "results": [ {"group":...,"bench":...,"median_ns":...}, ... ] }
# plus the usual human-readable bench lines on stdout.
#
# The "machine" header (CPU model, core count, kernel) is what makes
# cross-commit comparison honest: numbers from different machines are
# not comparable, and the header says so without relying on anyone's
# memory.
set -euo pipefail
cd "$(dirname "$0")/.."

tag=$(date +%Y%m%d)
out="BENCH_${tag}.json"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

CRITERION_JSON="$tmp" cargo bench -p eleph-bench "$@"

if [ ! -s "$tmp" ]; then
    echo "bench.sh: no results captured" >&2
    exit 1
fi

# Machine context: enough to judge whether two BENCH files are
# comparable (and whether the pooled-ingest arm had cores to run on).
cpu_model=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
[ -n "${cpu_model:-}" ] || cpu_model=$(uname -m)
cores=$(nproc 2>/dev/null || echo 1)
kernel=$(uname -sr)

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "git": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    printf '  "machine": {"cpu": "%s", "cores": %s, "kernel": "%s"},\n' \
        "$cpu_model" "$cores" "$kernel"
    printf '  "results": [\n'
    sed 's/^/    /; $!s/$/,/' "$tmp"
    printf '  ]\n}\n'
} > "$out"

echo "bench.sh: wrote $(grep -c median_ns "$tmp") results to $out"
