#!/usr/bin/env bash
# Run the project's static-analysis gate: the stock `go vet` passes
# (copylocks, lostcancel among them), then the gausslint vet tool built from
# this checkout (errwrap, ctxflow, poolreset). They are two commands because
# `go vet -vettool=X` runs X *instead of* the stock passes, not beside them. CI's lint job runs this script; its test job runs the
# stock `go vet ./...` once more on its own.
# Any finding exits non-zero. Suppressions require a
# `//lint:ignore <analyzers> <reason>` directive; see internal/analysis/doc.go.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "# go vet ./..."
go vet "$@" ./...

# internal/pfv/le64.go is the one non-test file allowed to import unsafe,
# and internal/pfv the one package allowed assembly (its kernel bodies).
if grep -rlE --include='*.go' --exclude='*_test.go' '^(import)?[[:space:]]+"unsafe"$' . | grep -vx './internal/pfv/le64.go'; then
	echo "unsafe imported outside internal/pfv/le64.go" >&2; exit 1
fi
if find . -name '*.s' -not -path './internal/pfv/*' | grep .; then
	echo "assembly outside internal/pfv" >&2; exit 1
fi

echo "# building gausslint"
go build -o "$tmp/gausslint" ./cmd/gausslint

echo "# go vet -vettool=gausslint ./..."
go vet -vettool="$tmp/gausslint" "$@" ./...
echo "# go vet and gausslint clean"
