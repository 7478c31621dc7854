#!/usr/bin/env bash
# loc.sh — the ROADMAP's size numbers, counted the same way every time:
# non-test Go lines outside benchmark/, the fields of gausstree.Options and
# the flags of gaussd.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "non-test Go lines outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
echo "  of them internal/core + internal/shard: $(find internal/core internal/shard -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
echo "Options fields: $(sed -n '/^type Options struct {/,/^}/p' gausstree.go | grep -cE '^	[A-Z][A-Za-z]* ')"
echo "gaussd flags: $(grep -cE '= fs\.(String|Int|Int64|Bool|Duration|Float64)\(' cmd/gaussd/main.go)"
