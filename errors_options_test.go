package gausstree_test

import (
	"context"
	"errors"
	"testing"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
)

// TestInvalidOptionsSentinel pins the constructor error contract the errwrap
// analyzer enforces: misconfiguration must satisfy
// errors.Is(err, ErrInvalidOptions) so callers can branch on the sentinel.
func TestInvalidOptionsSentinel(t *testing.T) {
	if _, err := gausstree.NewSharded(2, 0); !errors.Is(err, gausstree.ErrInvalidOptions) {
		t.Errorf("NewSharded(shards=0) = %v; want errors.Is ErrInvalidOptions", err)
	}
	if _, err := gausstree.New(2, gausstree.Options{
		Ingest: &gausstree.IngestOptions{MergeDistance: 0},
	}); !errors.Is(err, gausstree.ErrInvalidOptions) {
		t.Errorf("New(MergeDistance=0) = %v; want errors.Is ErrInvalidOptions", err)
	}
	if _, err := gausstree.New(2, gausstree.Options{
		Ingest: &gausstree.IngestOptions{MergeDistance: 2, TTL: -time.Second},
	}); !errors.Is(err, gausstree.ErrInvalidOptions) {
		t.Errorf("New(TTL<0) = %v; want errors.Is ErrInvalidOptions", err)
	}
	// Merge-ingest is single-tree only; a sharded index must say so instead
	// of silently dropping the option.
	ingest := gausstree.Options{Ingest: &gausstree.IngestOptions{MergeDistance: 2}}
	if _, err := gausstree.NewSharded(2, 2, ingest); !errors.Is(err, gausstree.ErrInvalidOptions) {
		t.Errorf("NewSharded(Ingest) = %v; want errors.Is ErrInvalidOptions", err)
	}
	dir := t.TempDir()
	s, err := gausstree.NewSharded(2, 2, gausstree.Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := gausstree.OpenSharded(dir, ingest); !errors.Is(err, gausstree.ErrInvalidOptions) {
		t.Errorf("OpenSharded(Ingest) = %v; want errors.Is ErrInvalidOptions", err)
	}
}

// TestInsertContextCancellation exercises the context-aware insert path the
// ctxflow fix introduced: on a merge-ingest tree the near-duplicate probe is
// bounded by the caller's context, so a cancelled context abandons the insert
// and leaves the tree unchanged, while a live context succeeds.
func TestInsertContextCancellation(t *testing.T) {
	tree, err := gausstree.New(2, gausstree.Options{
		PageSize: 1024,
		Ingest:   &gausstree.IngestOptions{MergeDistance: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	v1 := gausstree.MustVector(1, []float64{0, 0}, []float64{1, 1})
	if err := tree.InsertContext(context.Background(), v1); err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(); got != 1 {
		t.Fatalf("Len after first insert = %d; want 1", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v2 := gausstree.MustVector(2, []float64{50, 50}, []float64{1, 1})
	if err := tree.InsertContext(ctx, v2); !errors.Is(err, context.Canceled) {
		t.Errorf("InsertContext(cancelled) = %v; want errors.Is context.Canceled", err)
	}
	if got := tree.Len(); got != 1 {
		t.Errorf("Len after cancelled insert = %d; want 1 (tree unchanged)", got)
	}

	if err := tree.InsertContext(context.Background(), v2); err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(); got != 2 {
		t.Errorf("Len after live-context insert = %d; want 2", got)
	}
}
