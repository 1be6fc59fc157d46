#!/bin/sh
# bench_sched.sh — scheduler-policy benchmark with commit-over-commit
# comparison, also available as `make bench-sched`.
#
# Runs `benchfig -exp sched` (round-robin against async at 2, 4 and 8
# workers on a skewed corpus with real per-test durations), rotating the
# previous BENCH_sched.json/.bench to *.prev first. The
# corpus comes from scripts/corpus.sh so it is the byte-identical file
# `make chaos` tortures. When benchstat is installed and a previous run
# exists, the benchstat-format twins are compared; otherwise the raw rows
# are printed side by side. Extra arguments are passed to benchfig
# (e.g. `scripts/bench_sched.sh -schedworkers 4,16`).
set -eu
cd "$(dirname "$0")/.."

OUT=BENCH_sched.json
BENCH=BENCH_sched.bench
for f in "$OUT" "$BENCH"; do
    if [ -f "$f" ]; then
        mv "$f" "$f.prev"
    fi
done

CORPUS=$(sh scripts/corpus.sh)
go run ./cmd/benchfig -exp sched -schedout "$OUT" -schedcorpus "$CORPUS" "$@"

if [ -f "$BENCH.prev" ]; then
    if command -v benchstat >/dev/null 2>&1; then
        echo "== benchstat vs previous run"
        benchstat "$BENCH.prev" "$BENCH"
    else
        echo "== benchstat not installed; previous vs current:"
        echo "-- $BENCH.prev"
        cat "$BENCH.prev"
        echo "-- $BENCH"
        cat "$BENCH"
    fi
fi
