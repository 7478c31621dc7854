package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// ScrubReport summarizes one integrity pass over the tree.
type ScrubReport struct {
	// Pages is the number of pages read and verified (nodes plus the exact
	// sidecar pages of quantized leaves).
	Pages int
}

// Scrub runs check over the published snapshot with every page — nodes and
// sidecars — re-read from the backend past the buffer cache (file backends
// re-verify the CRC trailer on the physical read) and decoded afresh, so bit
// rot, pages that no longer decode and logical damage under a valid trailer
// (a routing box or count that disagrees with its node) all surface. Damage is
// reported wrapping ErrCorrupt, the same sentinel CheckInvariants uses; the
// scan aborts on the first damaged page.
//
// The walk pins the snapshot's reclamation epoch exactly like a query, so
// it is safe concurrently with mutations — it sees one consistent tree and
// none of its pages can be reclaimed mid-scan. It takes no tree lock and
// charges nothing to the I/O counters. throttle, when non-nil, runs before
// each page read and may return an error (typically ctx.Err()) to abort;
// it is the rate-limiting hook of the serving layer's background scrubber.
func (t *Tree) Scrub(ctx context.Context, throttle func() error) (ScrubReport, error) {
	var rep ScrubReport
	snap, pin := t.pinSnap()
	defer t.mgr.UnpinEpoch(pin)
	err := t.check(snap, func(id pagefile.PageID) (*node, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if throttle != nil {
			if err := throttle(); err != nil {
				return nil, err
			}
		}
		n, err := t.verifyDecode(id)
		if err == nil {
			rep.Pages++
		}
		return n, err
	})
	return rep, err
}

// verifyDecode reads page id from the backend (bypassing the cache) and
// decodes it, wrapping any damage as ErrCorrupt (see corrupt).
func (t *Tree) verifyDecode(id pagefile.PageID) (*node, error) {
	page, err := t.mgr.VerifyPage(id)
	if err != nil {
		return nil, corrupt(id, err)
	}
	n, err := decodeNode(id, page, t.dim)
	if err != nil {
		return nil, corrupt(id, fmt.Errorf("decoding node: %w", err))
	}
	return n, nil
}

// corrupt reports a failed read or decode of page id by Scrub or
// CheckInvariants as damage: wrapping ErrCorrupt and keeping the cause, so
// errors.Is finds both. A closed page store is not damage — the tree was
// closed under the walk — and passes through unwrapped, as does nil.
func corrupt(id pagefile.PageID, err error) error {
	if err == nil || errors.Is(err, pagefile.ErrClosed) {
		return err
	}
	return fmt.Errorf("%w: page %d: %w", ErrCorrupt, id, err)
}
