#!/usr/bin/env bash
# Run the project's static-analysis gate exactly as CI does: build the
# gausslint multichecker from this checkout and run it over the whole module
# through `go vet -vettool`, so the stock vet passes (copylocks, lostcancel
# among them) and the project analyzers (epochorder, lockorder, poolreset,
# errwrap, ctxflow, waldurable, obsregister — plus nilness and unusedwrite)
# all gate together.
# Any finding exits non-zero. Suppressions require a
# `//lint:ignore <analyzers> <reason>` directive; see internal/analysis/doc.go.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "# building gausslint"
go build -o "$tmp/gausslint" ./cmd/gausslint

echo "# go vet -vettool=gausslint ./..."
go vet -vettool="$tmp/gausslint" "$@" ./...
echo "# gausslint clean"
