package gausstree_test

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree"
)

// TestShardedMatchesUnsharded: the public sharded tree must answer exactly
// like the public unsharded tree over the same data — ids, ordering, and
// probabilities within the configured accuracy.
func TestShardedMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	vs := randomWorld(rng, 900, 3)
	const accuracy = 1e-5

	single, err := gausstree.New(3, gausstree.Options{Accuracy: accuracy})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}

	sharded, err := gausstree.NewSharded(3, 4, gausstree.Options{Accuracy: accuracy})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if err := sharded.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	if sharded.Len() != len(vs) || sharded.NumShards() != 4 || sharded.Dim() != 3 {
		t.Fatalf("sharded geometry: len=%d shards=%d dim=%d", sharded.Len(), sharded.NumShards(), sharded.Dim())
	}
	if err := sharded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 15; trial++ {
		src := vs[rng.Intn(len(vs))]
		q := gausstree.MustVector(0, src.Mean, src.Sigma)

		want, err := single.KMostLikely(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := sharded.KMLIQContext(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Vector.ID != want[i].Vector.ID {
				t.Errorf("trial %d rank %d: id %d, want %d", trial, i, got[i].Vector.ID, want[i].Vector.ID)
			}
			if math.Abs(got[i].Probability-want[i].Probability) > accuracy {
				t.Errorf("trial %d id %d: p=%v, unsharded %v", trial, got[i].Vector.ID, got[i].Probability, want[i].Probability)
			}
		}
		if len(st.PerShard) != 4 || st.MergeRounds < 1 {
			t.Errorf("trial %d: stats breakdown %d shards, %d rounds", trial, len(st.PerShard), st.MergeRounds)
		}

		wantT, err := single.Threshold(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := sharded.Threshold(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotT) != len(wantT) {
			t.Fatalf("trial %d TIQ: %d matches, want %d", trial, len(gotT), len(wantT))
		}
		for i := range wantT {
			if gotT[i].Vector.ID != wantT[i].Vector.ID {
				t.Errorf("trial %d TIQ rank %d: id %d, want %d", trial, i, gotT[i].Vector.ID, wantT[i].Vector.ID)
			}
		}
	}
}

// TestShardedPersistenceRoundTrip: a durable sharded index reopens to
// byte-identical query results, keeps routing mutations, and refuses
// double-creation.
func TestShardedPersistenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	vs := randomWorld(rng, 400, 2)
	dir := filepath.Join(t.TempDir(), "sharded-idx")

	st, err := gausstree.NewSharded(2, 3, gausstree.Options{Path: dir, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	src := vs[7]
	q := gausstree.MustVector(0, src.Mean, src.Sigma)
	want, err := st.KMostLikely(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := gausstree.NewSharded(2, 3, gausstree.Options{Path: dir}); err == nil {
		t.Fatal("NewSharded over an existing sharded index must be refused")
	}

	re, err := gausstree.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(vs) || re.NumShards() != 3 {
		t.Fatalf("reopened geometry: len=%d shards=%d", re.Len(), re.NumShards())
	}
	got, err := re.KMostLikely(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened: %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Vector.ID != want[i].Vector.ID || got[i].Probability != want[i].Probability {
			t.Errorf("reopened rank %d: (%d, %v), want (%d, %v)",
				i, got[i].Vector.ID, got[i].Probability, want[i].Vector.ID, want[i].Probability)
		}
	}

	// Mutations still route and commit after reopen.
	extra := gausstree.MustVector(99999, []float64{0.5, 0.5}, []float64{0.2, 0.2})
	if err := re.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if found, err := re.Delete(extra); err != nil || !found {
		t.Fatalf("delete after reopen: found=%v err=%v", found, err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedOpenRejectsGarbage: a directory without a manifest, or with a
// corrupt one, is refused.
func TestShardedOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := gausstree.OpenSharded(dir); err == nil {
		t.Error("OpenSharded on an empty directory should fail")
	}
	if err := os.WriteFile(filepath.Join(dir, "shards.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gausstree.OpenSharded(dir); err == nil {
		t.Error("OpenSharded with a corrupt manifest should fail")
	}
}

// TestShardedManifestBytesAndRetiredRouting pins the manifest of a 4-shard
// index byte for byte — new directories name the partition by parameter
// space — and checks that a manifest naming a retired routing, round-robin
// or a hash of the object id, is refused with the rebuild advice before any
// shard file is opened or changed.
func TestShardedManifestBytesAndRetiredRouting(t *testing.T) {
	dir := t.TempDir()
	st, err := gausstree.NewSharded(2, 4, gausstree.Options{Path: dir, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	vs := randomWorld(rand.New(rand.NewSource(29)), 200, 2)
	if _, err := st.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "shards.json")
	intact, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Version":1,"Shards":4,"Partition":"param-space"}`; string(intact) != want {
		t.Fatalf("shards.json = %s, want %s", intact, want)
	}

	files := func() map[string]string {
		out := map[string]string{}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	for _, policy := range []string{"round-robin", "hash-id"} {
		if err := os.WriteFile(manifest, []byte(`{"Version":1,"Shards":4,"Partition":"`+policy+`"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		before := files()
		s, err := gausstree.OpenSharded(dir)
		if err == nil {
			s.Close()
			t.Fatalf("OpenSharded accepted a %s manifest", policy)
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+policy+`"`) || !strings.Contains(msg, "rebuild") {
			t.Errorf("refusal %q does not name the policy and the way out", msg)
		}
		if after := files(); !reflect.DeepEqual(after, before) {
			t.Errorf("the refused OpenSharded of a %s manifest changed the index directory", policy)
		}
	}

	if err := os.WriteFile(manifest, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := gausstree.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if found, err := re.Delete(vs[3]); err != nil || !found {
		t.Fatalf("delete on the reopened index: found=%v err=%v", found, err)
	}
}

// openFDs counts this process's open file descriptors via /proc; -1 when the
// platform does not expose them (the leak assertion is then skipped).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestOpenShardedCorruptManifest: every way shards.json can rot — truncated,
// garbage, naming more shards than exist, naming a nonsensical count or a
// retired partition — must
// fail OpenSharded with a clean error and leak nothing: shards opened before
// the failure was detected must all be closed again (verified by the
// process's file-descriptor count).
func TestOpenShardedCorruptManifest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vs := randomWorld(rng, 120, 2)
	dir := t.TempDir()
	st, err := gausstree.NewSharded(2, 3, gausstree.Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "shards.json")
	intact, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		body []byte
	}{
		{"truncated", intact[:len(intact)/2]},
		{"empty", nil},
		{"garbage", []byte("\x00\xffnot a manifest at all\x1b")},
		// Valid JSON claiming more shards than exist: shards 0-2 open
		// successfully, shard 3 fails — the three opened ones must close.
		{"wrong shard count", []byte(`{"Version":1,"Shards":5,"Partition":"param-space"}`)},
		{"zero shards", []byte(`{"Version":1,"Shards":0,"Partition":"param-space"}`)},
		{"negative shards", []byte(`{"Version":1,"Shards":-4,"Partition":"param-space"}`)},
		{"unsupported version", []byte(`{"Version":99,"Shards":3,"Partition":"param-space"}`)},
		// The retired routing by a hash of the object id is refused
		// before any shard file is opened.
		{"hash-id partition", []byte(`{"Version":1,"Shards":3,"Partition":"hash-id"}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(manifest, tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			before := openFDs(t)
			s, err := gausstree.OpenSharded(dir)
			if err == nil {
				s.Close()
				t.Fatal("OpenSharded succeeded on a corrupt manifest")
			}
			if after := openFDs(t); before >= 0 && after != before {
				t.Errorf("OpenSharded leaked file descriptors: %d before, %d after", before, after)
			}
		})
	}

	// The data itself was never touched: restoring the manifest restores
	// the index.
	if err := os.WriteFile(manifest, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := gausstree.OpenSharded(dir)
	if err != nil {
		t.Fatalf("reopen after manifest restore: %v", err)
	}
	defer re.Close()
	if re.Len() != len(vs) {
		t.Errorf("restored index has %d vectors, want %d", re.Len(), len(vs))
	}
}

// TestNewShardedReclaimsCrashedCreate: a directory holding committed shard
// files but no manifest is provably debris from a create that died before
// its final manifest write; NewSharded must reclaim it instead of wedging
// the path forever (pagefile.CreateFile refuses committed files).
func TestNewShardedReclaimsCrashedCreate(t *testing.T) {
	dir := t.TempDir()
	// Simulate the crash: one committed shard file, no manifest.
	tr, err := gausstree.New(2, gausstree.Options{Path: filepath.Join(dir, "shard-0000.gtree")})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(gausstree.MustVector(1, []float64{1, 1}, []float64{1, 1})); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := gausstree.NewSharded(2, 2, gausstree.Options{Path: dir})
	if err != nil {
		t.Fatalf("NewSharded over crashed-create debris: %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("reclaimed index not empty: %d vectors", st.Len())
	}
	if err := st.Insert(gausstree.MustVector(2, []float64{3, 3}, []float64{1, 1})); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := gausstree.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reopened reclaimed index has %d vectors, want 1", re.Len())
	}
}

// TestShardedClosedOperations: the uniform closed-state contract of the
// sharded façade.
func TestShardedClosedOperations(t *testing.T) {
	st, err := gausstree.NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	v := gausstree.MustVector(1, []float64{1, 1}, []float64{1, 1})
	if err := st.Insert(v); err != gausstree.ErrClosed {
		t.Errorf("Insert after close: %v", err)
	}
	if _, err := st.KMostLikely(v, 1); err != gausstree.ErrClosed {
		t.Errorf("query after close: %v", err)
	}
	if _, err := st.Stats(); err != gausstree.ErrClosed {
		t.Errorf("Stats after close: %v", err)
	}
	if err := st.ResetStats(); err != gausstree.ErrClosed {
		t.Errorf("ResetStats after close: %v", err)
	}
	if err := st.Sync(); err != gausstree.ErrClosed {
		t.Errorf("Sync after close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
