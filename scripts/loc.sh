#!/usr/bin/env bash
# loc.sh — the ROADMAP's size numbers and knob census, counted the same way
# every time: non-test Go lines outside benchmark/ (and, on their own line,
# in it), every independently settable value of the library, the baselines,
# the daemon and the tools, and
# the places in internal/core where a mutation can become visible or logged
# and where a reader can pin or load a snapshot or start a traversal (every
# query is one core.Cursor: one newTraversal call), and the one user of the
# row-major vector codec. Assembly is counted on its own line (lint.sh keeps
# it to internal/pfv's kernel bodies).
# Each count has a ceiling — what the last PR that lowered it reached — and
# the script exits non-zero when a count is above its ceiling, so CI's size
# census only ever ratchets down. A PR that removes a knob lowers the ceiling
# here; one that needs to add a knob has to raise it in the open.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
# census NAME COUNT CEILING
census() {
	local verdict=""
	if [ "$2" -gt "$3" ]; then
		verdict="  ABOVE THE CEILING"
		fail=1
	fi
	printf '%-40s %6d  (ceiling %d)%s\n' "$1:" "$2" "$3" "$verdict"
}
# fields FILE TYPE: exported fields of a struct type.
fields() {
	sed -n "/^type $2 struct {/,/^}/p" "$1" | grep -cE '^	[A-Z][A-Za-z]* ' || true
}
# flags FILE RECEIVER: flags a command declares on the given flag set.
flags() {
	grep -cE "= $2\.(String|Int|Int64|Bool|Duration|Float64)\(" "$1" || true
}

lines=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l)
# Recycled page images moved the ceiling by their net +297 (124 of them
# comment lines): the two reader generations and the image lifetime and
# escape rules (pagefile/epoch.go), the read-into method of the file backend
# and the fault wrapper, the manager's pinned read, and core's readers and
# writer passing the pins they hold. Freed pages waiting in those same
# generations took 60 back: epochMu, the per-epoch pin map, the limbo's
# epoch stamps and horizon, and CommitMeta's stamping pass. One cache entry
# per page image, its decoded form attached beside it, took 26 more: Free,
# ReadPinned, the byte-read fork of the miss path and the one-form rule's
# re-read. One checked walk (Scrub is CheckInvariants read past the cache)
# and refusing hash-id directories took it to 21866. A one-shard engine
# answering with its tree's own query (the coordinator's one-shard branches
# gone) and deleting what only tests called (the numeric hull integral and
# its polynomial CDF, LogSum's AddScaled/Merge/Terms, Interval.Valid, three
# rect helpers, Registry.Unregister, TopK.Full) took it to 21709, with
# gaussd's two flag bounds and the deadline fix already in. One queue entry
# per expanded node (core/queue.go: a block of children best first with
# suffix sums of their mass, put off until a test first reads them) moved
# it by its net +163, a ranked query scoring whole leaves and Tree queries
# skipping the per-shard breakdown included.
census "non-test Go lines outside benchmark/" "$lines" 21872
# The benchmark of record is counted on its own line: its files change only
# with the benchmark (BENCHMARK.json), never beside a change it measures.
census "non-test Go lines in benchmark/" "$(find benchmark -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)" 3813
echo "  of them internal/core + internal/shard: $(find internal/core internal/shard -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
# The README is held to a byte budget (ROADMAP 9(c)) so that it cannot drift
# past it one paragraph at a time.
census "README bytes" "$(wc -c < README.md)" 40000
census "assembly lines (internal/pfv only)" "$(find . -name '*.s' -print0 | xargs -0 -r cat | wc -l)" 272
census "Options fields" "$(fields gausstree.go Options)" 9
census "LeafFormat values" "$(sed -n '/^const (/,/^)/p' internal/core/leafformat.go | grep -cE '^	Leaf[A-Za-z0-9]+( |$)' || true)" 3
census "core.Config fields" "$(fields internal/core/tree.go Config)" 3
census "xtree.Config fields" "$(fields internal/xtree/xtree.go Config)" 2
census "server.Config fields" "$(fields internal/server/server.go Config)" 13
census "eval.Setup fields" "$(fields internal/eval/eval.go Setup)" 4
# Freed pages and recycled page images share one grace period (epoch.go).
census "pagefile mutexes" "$(find internal/pagefile -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | grep -cE '^	[A-Za-z]+ +sync\.Mutex' || true)" 5
# One decoded read (ReadDecoded, pinned or not) and one way out (FreeDeferred).
census "pagefile Manager read/write/free methods" "$(find internal/pagefile -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | grep -cE '^func \(m \*Manager\) (Read|Write|Free)[A-Za-z]*\(' || true)" 6
census "pagefile options" "$(cat internal/pagefile/*.go | grep -cE '^func With[A-Za-z]+\(.*\) Option \{' || true)" 1
census "gaussd flags" "$(flags cmd/gaussd/main.go fs)" 15
census "gaussbench flags" "$(flags cmd/gaussbench/main.go fs)" 2
census "gausslint drivers" "$(cat internal/analysis/*.go | grep -cE '^func (UnitCheck|Run)\(' || true)" 1
census "gausslint flags" "$(flags cmd/gausslint/main.go fs)" 0
census "gausslint analyzers" "$(sed -n '/^func All()/,/^}/p' internal/analysis/run.go | grep -cE '^		[A-Z][A-Za-z]*,$' || true)" 3
# core CALL: call sites of CALL in internal/core's non-test files.
core() {
	find internal/core -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | grep -cE "^[[:space:]].*$1" || true
}
census "core publish() call sites" "$(core 't\.publish\(\)')" 5
census "core wal.Append call sites" "$(core 't\.wal\.Append\(')" 1
census "core PinEpoch() call sites" "$(core '\.PinEpoch\(\)')" 1
census "core t.snap.Load() call sites" "$(core 't\.snap\.Load\(\)')" 2
census "core newTraversal( call sites" "$(core 't\.newTraversal\(')" 1
# Pages of every engine hold pfv's columnar body; the row codec is the WAL's.
census "pfv.DecodeBinary call sites outside internal/pfv" "$(find . -name '*.go' -not -name '*_test.go' -not -path './internal/pfv/*' -print0 | xargs -0 cat | grep -c 'pfv\.DecodeBinary(' || true)" 1
# One bound kernel for every filter (pfv.Boxes.LogBounds): the scalar pair is
# the tests' reference only.
census "production calls of gaussian.LogHull/LogFloor outside internal/gaussian" "$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './internal/gaussian/*' -print0 | xargs -0 cat | grep -cE 'gaussian\.Log(Hull|Floor)\(' || true)" 0
exit $fail
