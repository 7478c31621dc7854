// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs: it
// defines the Analyzer/Pass/Diagnostic vocabulary, type-checks the package
// cmd/go describes to a vet tool against the export data cmd/go already
// compiled (UnitCheck — no network access and no module requirements), and
// hosts the project-specific analyzers that mechanically enforce the tree's
// concurrency, durability and error-contract invariants.
//
// The module is intentionally zero-dependency (go.mod has no requires), so
// rather than pinning golang.org/x/tools we mirror the subset of its analysis
// API we use. The shapes are kept source-compatible — Analyzer{Name, Doc,
// Run}, Pass{Fset, Files, Pkg, TypesInfo, Report}, analysistest with
// `// want` comments — so a future migration to the real framework is a
// mechanical import swap.
//
// # The analyzers
//
// Six analyzers encode invariants that are documented in prose elsewhere in
// the tree but were previously enforced only by review:
//
//   - epochorder: a snapshot pointer load must be dominated by an epoch pin
//     (Manager.PinEpoch), and every pin must be released on all return
//     paths. A load before the pin can observe a snapshot whose pages the
//     reclaimer already recycled.
//   - lockorder: lock acquisitions must follow the documented rank order
//     index.mu < Manager.ioMu < Manager.epochMu < Manager.allocMu
//     < shard locks. Shard locks are terminal: nothing may be acquired —
//     and no pagefile I/O performed — while one is held. Cross-package
//     calls into pagefile.Manager are resolved through a built-in summary
//     table that is drift-checked against the real method bodies whenever
//     the pagefile package itself is analyzed.
//   - poolreset: before sync.Pool.Put, every reference-retaining field of
//     the pooled object must be cleared (or a reset method called), and the
//     object must not be used after Put.
//   - errwrap: validation and closed-state errors must wrap their package
//     sentinel (core.ErrInvalidArg, wal.ErrClosed, ...) with %w so callers
//     can branch with errors.Is instead of matching message text.
//   - ctxflow: no context.Background()/context.TODO() on request-serving
//     paths or inside functions that already receive a ctx; thread the
//     caller's context.
//   - waldurable: publishing a snapshot (the atomic store + AdvanceEpoch
//     pair) requires a preceding WAL append or meta commit on every path —
//     durability before visibility.
//
// (Ports of x/tools' nilness and unusedwrite rode along until PR 22; neither
// ever reported a finding outside its own fixtures, at HEAD or on the parents
// of the bug-fix PRs 12–14, and they went.)
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
// the same scrutiny as a new unsafe block. The initial sweep of this suite
// over the repository surfaced 28 findings; all true positives were fixed
// with regression tests, and the handful of justified suppressions that
// remain (context-free compat wrappers, recovery-time republication of
// already-durable state) each carry such a reason.
package analysis
