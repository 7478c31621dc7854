// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs: it
// defines the Analyzer/Pass/Diagnostic vocabulary, type-checks the package
// cmd/go describes to a vet tool against the export data cmd/go already
// compiled (UnitCheck — no network access and no module requirements), and
// hosts the project-specific analyzers.
//
// The module is intentionally zero-dependency (go.mod has no requires), so
// rather than pinning golang.org/x/tools we mirror the subset of its analysis
// API we use. The shapes are kept source-compatible — Analyzer{Name, Doc,
// Run}, Pass{Fset, Files, Pkg, TypesInfo, Report}, analysistest with
// `// want` comments — so a future migration to the real framework is a
// mechanical import swap.
//
// # The analyzers, and what each has caught
//
// An analyzer stays only while it can name a regression in this repository's
// history that it caught or would have caught. Three can:
//
//   - errwrap: validation and closed-state errors must wrap their package
//     sentinel (core.ErrInvalidArg, wal.ErrClosed, ...) with %w so callers
//     can branch with errors.Is instead of matching message text. Caught 18
//     at 05635fc, the commit before the suite landed.
//   - ctxflow: no context.Background()/context.TODO() on request-serving
//     paths or inside functions that already receive a ctx; thread the
//     caller's context. Caught 7 at 05635fc, among them the merge-ingest
//     probe that kept scanning after its request was gone.
//   - poolreset: before sync.Pool.Put, every reference-retaining field of
//     the pooled object must be cleared (or a reset method called), and the
//     object must not be used after Put. Caught obs.Trace.Release returning
//     traces to the pool with start still set.
//
// To reproduce the first two, run this checkout's tool over the old tree
// (dir is any empty directory):
//
//	go build -o "$dir/gausslint" ./cmd/gausslint
//	git archive 05635fc | tar -x -C "$dir"
//	cd "$dir" && go vet -vettool="$dir/gausslint" ./...   # 18 errwrap, 7 ctxflow
//
// and for the third, delete `t.start = time.Time{}` from Trace.Release in
// internal/obs/trace.go and run `go vet -vettool="$dir/gausslint"
// ./internal/obs`: "sync.Pool.Put(t) without clearing reference-retaining
// field(s) start".
//
// Four more analyzers never reported a real finding at 05635fc or any later
// commit, and went; each invariant they held is now held by a test or a
// scripts/loc.sh census line:
//
//   - epochorder (pin before loading a snapshot, release on every path):
//     census "core PinEpoch() call sites" 1 and "core t.snap.Load() call
//     sites" 2 (pinSnap and snapshot), and TestEveryReadReleasesItsPin.
//   - lockorder (pagefile.Manager's ioMu < allocMu < cache shard locks <
//     the reader generations' lock): pagefile's TestShardedCacheConcurrentHammer, which runs every
//     method that nests them, under -race in CI — it checks the paths it
//     exercises, not every path.
//   - waldurable (a WAL append or meta commit before each publish): census
//     "core publish() call sites" 5 and "core wal.Append call sites" 1, the
//     TestCrashRecovery* tests and the benchmark's crash image.
//   - obsregister (the obs hot path takes no lock): internal/obs's
//     TestHotPathTakesNoLock.
//
// Ports of x/tools' nilness and unusedwrite went earlier for the same reason.
//
// # Running
//
// cmd/gausslint packages the suite as a vet tool; CI and scripts/lint.sh run
// it over the whole module as
//
//	go build -o gausslint ./cmd/gausslint
//	go vet -vettool=gausslint ./...
//
// Test files are exempt: the suite enforces production invariants, and tests
// legitimately use context.Background() and reach into unexported
// publication paths.
//
// # Suppression
//
// A finding is silenced by a directive on the flagged line or the line
// directly above:
//
//	//lint:ignore analyzer1,analyzer2 reason the invariant actually holds here
//
// The reason is mandatory — a directive without one is itself reported
// (pseudo-analyzer "lintdirective"). Review policy: a suppression is a claim
// that the invariant holds for a reason the analyzer cannot see, so the
// reason must say why, not what; reviewers should treat a new directive with
// the same scrutiny as a new unsafe block.
package analysis
