package gausstree_test

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree"
)

// observe jitters a base observation: same object measured again with
// slightly different values, well within its measurement uncertainty.
func observe(r *rand.Rand, base gausstree.Vector) gausstree.Vector {
	mean := make([]float64, base.Dim())
	sigma := make([]float64, base.Dim())
	for i := range mean {
		mean[i] = base.Mean[i] + r.NormFloat64()*base.Sigma[i]*0.2
		sigma[i] = base.Sigma[i] * (0.9 + 0.2*r.Float64())
	}
	return gausstree.MustVector(base.ID, mean, sigma)
}

func TestIngestMergesNearDuplicates(t *testing.T) {
	tree, err := gausstree.New(2, gausstree.Options{
		PageSize: 1024,
		Ingest:   &gausstree.IngestOptions{MergeDistance: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	r := rand.New(rand.NewSource(1))
	// Three well-separated objects, each observed 50 times.
	bases := []gausstree.Vector{
		gausstree.MustVector(1, []float64{0, 0}, []float64{0.5, 0.5}),
		gausstree.MustVector(2, []float64{100, 0}, []float64{0.5, 0.5}),
		gausstree.MustVector(3, []float64{0, 100}, []float64{0.5, 0.5}),
	}
	for round := 0; round < 50; round++ {
		for _, b := range bases {
			if err := tree.Insert(observe(r, b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := tree.Len(); got != len(bases) {
		t.Fatalf("Len = %d after 150 observations of 3 objects, want 3", got)
	}
	st, ok := tree.IngestStats()
	if !ok {
		t.Fatal("IngestStats not available in ingest mode")
	}
	if st.Inserted != 3 || st.Merged != 147 {
		t.Fatalf("stats = %+v, want 3 inserted / 147 merged", st)
	}
	// The merged Gaussians still identify their objects.
	for _, b := range bases {
		ms, err := tree.KMostLikely(observe(r, b), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || ms[0].Vector.ID != b.ID {
			t.Fatalf("query near object %d matched %+v", b.ID, ms)
		}
		// Moment matching keeps the mean near the true center and σ
		// positive and bounded (it absorbs spread, never collapses).
		for i := range b.Mean {
			if math.Abs(ms[0].Vector.Mean[i]-b.Mean[i]) > 3*b.Sigma[i] {
				t.Fatalf("object %d merged mean %v drifted from %v", b.ID, ms[0].Vector.Mean, b.Mean)
			}
			if !(ms[0].Vector.Sigma[i] > 0) || ms[0].Vector.Sigma[i] > 10*b.Sigma[i] {
				t.Fatalf("object %d merged sigma %v degenerate", b.ID, ms[0].Vector.Sigma)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIngestDistantObservationsInsert(t *testing.T) {
	tree, err := gausstree.New(2, gausstree.Options{
		PageSize: 1024,
		Ingest:   &gausstree.IngestOptions{MergeDistance: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	for i := 0; i < 50; i++ {
		// Far apart relative to σ: nothing should merge.
		v := gausstree.MustVector(uint64(i+1), []float64{float64(i) * 50, 0}, []float64{0.5, 0.5})
		if err := tree.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := tree.Len(); got != 50 {
		t.Fatalf("Len = %d, want 50 distinct objects", got)
	}
	st, _ := tree.IngestStats()
	if st.Merged != 0 {
		t.Fatalf("merged %d distant observations, want 0", st.Merged)
	}
}

func TestIngestTTLSweep(t *testing.T) {
	tree, err := gausstree.New(2, gausstree.Options{
		PageSize: 1024,
		Ingest:   &gausstree.IngestOptions{MergeDistance: 2, TTL: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	stale := gausstree.MustVector(1, []float64{0, 0}, []float64{0.5, 0.5})
	if err := tree.Insert(stale); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	fresh := gausstree.MustVector(2, []float64{100, 100}, []float64{0.5, 0.5})
	if err := tree.Insert(fresh); err != nil {
		t.Fatal(err)
	}

	removed, err := tree.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("swept %d objects, want 1 (only the stale one)", removed)
	}
	if got := tree.Len(); got != 1 {
		t.Fatalf("Len = %d after sweep, want 1", got)
	}
	st, _ := tree.IngestStats()
	if st.Swept != 1 {
		t.Fatalf("stats.Swept = %d, want 1", st.Swept)
	}
	// A fresh observation of the swept object re-inserts it.
	if err := tree.Insert(stale); err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(); got != 2 {
		t.Fatalf("Len = %d after re-observation, want 2", got)
	}
}

// TestIngestTTLCoversInsertAll: a batch stored verbatim by InsertAll is
// tracked for TTL decay exactly like BulkLoad-ed or reopened objects.
func TestIngestTTLCoversInsertAll(t *testing.T) {
	tree, err := gausstree.New(2, gausstree.Options{
		PageSize: 1024,
		Ingest:   &gausstree.IngestOptions{MergeDistance: 2, TTL: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	batch := []gausstree.Vector{
		gausstree.MustVector(1, []float64{0, 0}, []float64{0.5, 0.5}),
		gausstree.MustVector(2, []float64{100, 0}, []float64{0.5, 0.5}),
		gausstree.MustVector(3, []float64{0, 100}, []float64{0.5, 0.5}),
	}
	if n, err := tree.InsertAll(batch); err != nil || n != len(batch) {
		t.Fatalf("InsertAll = (%d, %v)", n, err)
	}
	time.Sleep(60 * time.Millisecond)
	removed, err := tree.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(batch) || tree.Len() != 0 {
		t.Fatalf("swept %d, Len %d; want the whole expired batch gone", removed, tree.Len())
	}
}

// TestSweepExpiredPoisonsOnDeadWAL: a sweep whose group commit hits a dead
// write-ahead log ends like every other mutation — the tree is poisoned
// right away, so the next mutation fails wrapping ErrPoisoned.
func TestSweepExpiredPoisonsOnDeadWAL(t *testing.T) {
	inj := gausstree.NewFaultInjector()
	tree, err := gausstree.New(2, gausstree.Options{
		Path:     filepath.Join(t.TempDir(), "sweep.gtree"),
		PageSize: 1024,
		Ingest:   &gausstree.IngestOptions{MergeDistance: 2, TTL: 20 * time.Millisecond},
		Fault:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.Insert(gausstree.MustVector(1, []float64{0, 0}, []float64{0.5, 0.5})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	if err := inj.Arm(gausstree.FaultSchedule{Ops: map[gausstree.FaultOp]gausstree.FaultRule{
		gausstree.FaultOpWALSync: {Prob: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.SweepExpired(); !errors.Is(err, gausstree.ErrInjected) {
		t.Fatalf("SweepExpired over a failing fsync = %v; want the injected fault", err)
	}
	inj.Disarm()
	err = tree.Insert(gausstree.MustVector(2, []float64{100, 100}, []float64{0.5, 0.5}))
	if !errors.Is(err, gausstree.ErrPoisoned) {
		t.Fatalf("Insert after the failed sweep = %v; want errors.Is ErrPoisoned", err)
	}
}

func TestIngestSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.gtree")
	opts := gausstree.Options{
		Path:     path,
		PageSize: 1024,
		Ingest:   &gausstree.IngestOptions{MergeDistance: 2},
	}
	tree, err := gausstree.New(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := gausstree.MustVector(7, []float64{5, 5}, []float64{0.5, 0.5})
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		if err := tree.Insert(observe(r, base)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := gausstree.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", re.Len())
	}
	// The re-seeded ingester keeps merging new observations of the same
	// object instead of duplicating it.
	for i := 0; i < 10; i++ {
		if err := re.Insert(observe(r, base)); err != nil {
			t.Fatal(err)
		}
	}
	if re.Len() != 1 {
		t.Fatalf("Len = %d after post-reopen observations, want 1", re.Len())
	}
	st, ok := re.IngestStats()
	if !ok || st.Merged != 10 {
		t.Fatalf("post-reopen stats = %+v (ok %v), want 10 merges", st, ok)
	}
}

func TestIngestOptionValidation(t *testing.T) {
	for _, bad := range []gausstree.IngestOptions{
		{MergeDistance: 0},
		{MergeDistance: -1},
		{MergeDistance: math.Inf(1)},
		{MergeDistance: 1, TTL: -time.Second},
	} {
		if _, err := gausstree.New(2, gausstree.Options{Ingest: &bad}); err == nil {
			t.Errorf("IngestOptions %+v accepted, want error", bad)
		}
	}
	// InsertAll bypasses merging even in ingest mode.
	tree, err := gausstree.New(2, gausstree.Options{Ingest: &gausstree.IngestOptions{MergeDistance: 100}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	vs := []gausstree.Vector{
		gausstree.MustVector(1, []float64{0, 0}, []float64{1, 1}),
		gausstree.MustVector(2, []float64{0.01, 0}, []float64{1, 1}),
	}
	if n, err := tree.InsertAll(vs); err != nil || n != 2 {
		t.Fatalf("InsertAll = (%d, %v)", n, err)
	}
	if tree.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (InsertAll stores verbatim)", tree.Len())
	}
}
