package gausstree_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	gausstree "github.com/gauss-tree/gausstree"
)

// TestLeafFormatPersistence: the leaf format chosen at build time is
// persisted with the index and restored by Open/OpenSharded, with the
// Options field of the reopening process ignored.
func TestLeafFormatPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	vs := randomWorld(rng, 200, 2)
	for _, format := range []gausstree.LeafFormat{
		gausstree.LeafExact, gausstree.LeafFloat32, gausstree.LeafGrid8,
	} {
		path := filepath.Join(t.TempDir(), "t.gtree")
		tr, err := gausstree.New(2, gausstree.Options{Path: path, PageSize: 1024, LeafFormat: format})
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.LeafFormat(); got != format {
			t.Fatalf("fresh tree reports leaf format %v, want %v", got, format)
		}
		if _, err := tr.InsertAll(vs); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		// Open with a contradictory Options.LeafFormat: file wins.
		re, err := gausstree.Open(path, gausstree.Options{LeafFormat: gausstree.LeafGrid8})
		if err != nil {
			t.Fatal(err)
		}
		if got := re.LeafFormat(); got != format {
			t.Fatalf("reopened tree reports leaf format %v, want %v", got, format)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("%v reopened invariants: %v", format, err)
		}
		if re.Len() != len(vs) {
			t.Fatalf("%v reopened Len %d, want %d", format, re.Len(), len(vs))
		}
		q := gausstree.MustVector(0, vs[0].Mean, vs[0].Sigma)
		ms, err := re.KMostLikely(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || !(ms[0].ProbLow <= ms[0].ProbHigh) {
			t.Fatalf("%v reopened query returned %d malformed results", format, len(ms))
		}
		re.Close()
	}
}

// TestParseLeafFormat pins the public parser's vocabulary.
func TestParseLeafFormat(t *testing.T) {
	cases := map[string]gausstree.LeafFormat{
		"":        gausstree.LeafExact,
		"exact":   gausstree.LeafExact,
		"float32": gausstree.LeafFloat32,
		"grid8":   gausstree.LeafGrid8,
	}
	for s, want := range cases {
		got, err := gausstree.ParseLeafFormat(s)
		if err != nil || got != want {
			t.Fatalf("ParseLeafFormat(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"mp3", "legacy-row"} {
		if _, err := gausstree.ParseLeafFormat(s); err == nil {
			t.Fatalf("ParseLeafFormat accepted %q", s)
		}
	}
}

// TestShardedQuantizedConformance: on a sharded index with quantized leaves,
// ranked answers must match the exact sharded index id-for-id, and the
// cross-shard merged probability intervals must contain the exact index's
// certified probabilities — quantization may widen a certified interval but
// never exclude the truth.
func TestShardedQuantizedConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	vs := randomWorld(rng, 800, 3)
	const accuracy = 1e-5

	build := func(format gausstree.LeafFormat) *gausstree.Sharded {
		s, err := gausstree.NewSharded(3, 3, gausstree.Options{Accuracy: accuracy, LeafFormat: format})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.BulkLoad(vs); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%v sharded invariants: %v", format, err)
		}
		if got := s.LeafFormat(); got != format {
			t.Fatalf("sharded reports leaf format %v, want %v", got, format)
		}
		return s
	}
	exact := build(gausstree.LeafExact)
	defer exact.Close()

	for _, format := range []gausstree.LeafFormat{gausstree.LeafFloat32, gausstree.LeafGrid8} {
		quant := build(format)
		for trial := 0; trial < 12; trial++ {
			src := vs[rng.Intn(len(vs))]
			q := gausstree.MustVector(0, src.Mean, src.Sigma)
			k := rng.Intn(5) + 1

			wantR, err := exact.KMostLikelyRanked(q, k)
			if err != nil {
				t.Fatal(err)
			}
			gotR, err := quant.KMostLikelyRanked(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotR) != len(wantR) {
				t.Fatalf("%v trial %d: %d ranked results, want %d", format, trial, len(gotR), len(wantR))
			}
			for i := range wantR {
				if gotR[i].Vector.ID != wantR[i].Vector.ID {
					t.Fatalf("%v trial %d rank %d: id %d, exact %d",
						format, trial, i, gotR[i].Vector.ID, wantR[i].Vector.ID)
				}
			}

			want, err := exact.KMostLikely(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := quant.KMostLikely(q, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				p := want[i].Probability
				if !(got[i].ProbLow <= p+accuracy && p <= got[i].ProbHigh+accuracy) {
					t.Fatalf("%v trial %d rank %d: quantized interval [%v,%v] excludes exact probability %v",
						format, trial, i, got[i].ProbLow, got[i].ProbHigh, p)
				}
			}
		}
		quant.Close()
	}
}
