package gausstree

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/wal"
)

// ErrCorrupt is wrapped by Scrub and CheckInvariants when the index's
// persisted state is damaged: a page whose CRC trailer no longer matches
// (bit rot, torn write), a page that no longer decodes as a node, a violated
// structural invariant (a routing box or count that disagrees with its node,
// a fill bound, a leaf depth, an invalid vector, Len), or a write-ahead-log
// frame corrupted below its durable horizon. Test with errors.Is.
var ErrCorrupt = core.ErrCorrupt

// ScrubOptions tune one integrity pass.
type ScrubOptions struct {
	// PagesPerSecond rate-limits the scan so a background scrubber never
	// competes with foreground queries for I/O; 0 scans at full speed.
	PagesPerSecond int
}

// ScrubReport summarizes one integrity pass.
type ScrubReport struct {
	// Pages is the number of index pages read from the backend and verified
	// (CRC trailer, node decode and the structural check), summed across
	// shards for Sharded.
	Pages int
	// WALRecords is the number of durable write-ahead-log records whose
	// checksums were verified (0 for memory-backed indexes).
	WALRecords int
	// Elapsed is the wall-clock duration of the pass.
	Elapsed time.Duration
}

// Scrub verifies the index's persisted state end to end: every page
// reachable from the current published snapshot is re-read from the storage
// backend — bypassing the buffer cache, so file backends re-verify the CRC
// trailer on a physical read — and decoded as a node, the tree those pages
// form is checked as CheckInvariants checks it (routing boxes and counts,
// fill, depth, vectors, Len), and the durable prefix of the write-ahead log
// is re-checksummed. Damage is reported wrapping ErrCorrupt and the pass
// aborts on the first damaged page.
//
// The walk pins a snapshot exactly like a query: it runs concurrently with
// mutations, takes no tree lock and charges nothing to the I/O counters.
// Shards are verified in turn, one snapshot each, under one shared rate
// limit. gaussd runs Scrub periodically in the background
// (-scrub-interval) and enters degraded mode when it fails.
func (x *index) Scrub(ctx context.Context, opts ScrubOptions) (ScrubReport, error) {
	st, err := x.state()
	if err != nil {
		return ScrubReport{}, err
	}
	start := time.Now()
	throttle := newScrubThrottle(ctx, opts.PagesPerSecond)
	var out ScrubReport
	for _, u := range st.units {
		if err = u.scrub(ctx, throttle, &out); err != nil {
			err = u.wrap(err)
			break
		}
	}
	out.Elapsed = time.Since(start)
	return out, err
}

// scrub verifies one unit — its pages, then its log — adding to rep.
func (u unit) scrub(ctx context.Context, throttle func() error, rep *ScrubReport) error {
	r, err := u.tree.Scrub(ctx, throttle)
	rep.Pages += r.Pages
	if err != nil {
		return scrubErr(err)
	}
	if u.wal == nil {
		return nil
	}
	n, err := u.wal.CheckIntegrity()
	rep.WALRecords += n
	if err != nil {
		return scrubWALErr(err)
	}
	return nil
}

// scrubErr maps a core scrub error onto the public error surface: a page
// store closed under the scan is ErrClosed (the tree went away, nothing is
// damaged); everything else already wraps ErrCorrupt or is a context error.
func scrubErr(err error) error {
	if errors.Is(err, pagefile.ErrClosed) {
		return ErrClosed
	}
	return err
}

// scrubWALErr maps a write-ahead-log integrity error likewise: a closed log
// is ErrClosed, checksum damage below the durable horizon wraps ErrCorrupt,
// and a failed log (sticky injected or real I/O error) passes through — the
// log is broken, not provably corrupt on disk.
func scrubWALErr(err error) error {
	switch {
	case errors.Is(err, wal.ErrClosed):
		return ErrClosed
	case errors.Is(err, wal.ErrCorrupt):
		return fmt.Errorf("%w: write-ahead log: %w", ErrCorrupt, err)
	default:
		return err
	}
}

// newScrubThrottle builds the per-page pacing hook: strict interval pacing
// (no burst credit accrues while the scan is stalled) with a context-
// interruptible sleep.
func newScrubThrottle(ctx context.Context, pagesPerSecond int) func() error {
	if pagesPerSecond <= 0 {
		return ctx.Err
	}
	interval := time.Second / time.Duration(pagesPerSecond)
	var next time.Time
	return func() error {
		now := time.Now()
		if next.Before(now) {
			next = now
		}
		if wait := next.Sub(now); wait > 0 {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		}
		next = next.Add(interval)
		return ctx.Err()
	}
}
