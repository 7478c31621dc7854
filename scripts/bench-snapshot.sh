#!/usr/bin/env bash
# bench-snapshot.sh — run the hot read-path benchmarks with allocation
# reporting and emit the results as JSON, one artifact per revision. The
# benchmark of record with its baseline and bounds is ./benchmark
# (BENCHMARK.json); this script only snapshots `go test -bench` output.
#
# Usage:
#   scripts/bench-snapshot.sh [out.json] [bench regex] [count] [benchtime]
#
# Defaults: out.json = "-" (stdout), regex covers the bench-hot set (KMLIQHot
# and KMLIQHotQuantized, KMLIQRankedHot (the public Tree's ranked query at
# k = 1, 3, 10), TIQHot, BatchExecutor, ShardedKMLIQ, ShardedTIQ,
# ReadNodeHot, FirstTouch, MissRecycled (certified 3-MLIQs on a file-backed
# tree that caches a quarter of its pages: misses into recycled page images),
# DecodeLeaf, ExpandInner (the bound kernel per child, alone and with the
# active queue's block build), AblationIntegral, BulkLoad
# (DS2 at N = 20 000 and 100 000), MedianCut (the §5.3 evaluator, ns per
# (entry, axis) and per extra cut position, at m = 49, 220 and 1 023),
# ColumnKernels (both kernel bodies, ns/entry), WireCodec (encode plus decode
# of the served path's messages), VAFilePhase1 (the VA-file's cell bounds,
# ns/approx at d = 10 and 27) — ShardedKMLIQ/shards-1 beside
# KMLIQHot/refined is what the coordinator costs a one-shard query),
# count = 1, benchtime = the go test default (pass e.g. "5000x" — a multiple of the 50-query cycle — to make
# pages/query comparable across snapshots). The JSON shape is
#   {"goos": ..., "goarch": ..., "benchmarks": [{"name": ..., "iterations": N,
#     "metrics": {"ns/op": ..., "B/op": ..., "allocs/op": ..., ...}}]}
# with every reported metric (including custom ones like pages/query)
# captured generically.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:--}"
REGEX="${2:-KMLIQHot|KMLIQRankedHot|TIQHot|BatchExecutor|ShardedKMLIQ|ShardedTIQ|ReadNodeHot|FirstTouch|MissRecycled|DecodeLeaf|ExpandInner|AblationIntegral|BulkLoad$|MedianCut|ColumnKernels|WireCodec|VAFilePhase1}"
COUNT="${3:-1}"
BENCHTIME="${4:-}"

RAW="$(mktemp)"
SNAP="$(mktemp)"
trap 'rm -f "$RAW" "$SNAP"' EXIT

go test -run '^$' -bench "$REGEX" -benchmem -count="$COUNT" \
	${BENCHTIME:+-benchtime="$BENCHTIME"} \
	./... >"$RAW" 2>&1 || { cat "$RAW" >&2; exit 1; }

JSON="$(awk '
/^Benchmark/ {
	name = $1; iters = $2
	printf "%s{\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", sep, name, iters
	msep = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		printf "%s\"%s\":%s", msep, $(i + 1), $i
		msep = ","
	}
	printf "}}"
	sep = ",\n    "
}
' "$RAW")"

if [ -z "$JSON" ]; then
	echo "bench-snapshot: no benchmark results matched regex \"$REGEX\"" >&2
	cat "$RAW" >&2
	exit 1
fi

printf '{\n  "goos": "%s",\n  "goarch": "%s",\n  "benchmarks": [\n    %s\n  ]\n}\n' \
	"$(go env GOOS)" "$(go env GOARCH)" "$JSON" >"$SNAP"

if [ "$OUT" = "-" ]; then
	cat "$SNAP"
else
	cp "$SNAP" "$OUT"
	echo "bench-snapshot: wrote $OUT" >&2
fi
