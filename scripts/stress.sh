#!/usr/bin/env bash
# Loop a test beside CPU hogs until it fails — for races that need a
# preempted goroutine at the wrong moment and show once per hundred runs on
# a small host (TestSnapshotIsolatedReaders did, see CHANGES.md PR 12).
#
#   scripts/stress.sh                         # TestSnapshotIsolatedReaders, 500 runs per -cpu value
#   scripts/stress.sh 'TestSnapshot' . 2000   # pattern, package, count
#   scripts/stress.sh TestX ./internal/core 20 -race   # ... and build flags for the test binary
#
# The test binary is built once; each -cpu value then runs -count times. The
# first failure stops the loop, prints the failing output and exits 1.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern=${1:-TestSnapshotIsolatedReaders}
pkg=${2:-.}
count=${3:-500}
buildflags=("${@:4}")
hogs=${STRESS_HOGS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)}

tmp=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

go test -c ${buildflags[@]+"${buildflags[@]}"} -o "$tmp/stress.test" "$pkg"

# One busy loop per CPU: the scheduler then preempts the test's goroutines
# mid-protocol instead of letting each run to its next blocking point.
for _ in $(seq "$hogs"); do
  ( while :; do :; done ) &
  pids+=($!)
done

echo "# $pattern in $pkg: $count runs per -cpu value, $hogs CPU hogs"
abs=$(cd "$pkg" && pwd)
for cpu in 1 2 4; do
  if ! (cd "$abs" && "$tmp/stress.test" -test.run "$pattern" -test.count "$count" -test.cpu "$cpu" -test.failfast >"$tmp/out" 2>&1); then
    echo "# FAILED with -cpu $cpu" >&2
    cat "$tmp/out" >&2
    exit 1
  fi
  echo "# -cpu $cpu: $count runs ok"
done
echo "# stress clean"
