package main

import "testing"

// The same seed must give byte-identical inputs, and another seed must not:
// the digest covers every generated id, mean and sigma.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) *inputs {
		in, err := makeInputs(seed, smokeSizes, 300)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, again, b := gen(7), gen(7), gen(8)
	if a.digest() != again.digest() {
		t.Error("seed 7 generated different inputs twice")
	}
	if a.digest() == b.digest() {
		t.Error("seeds 7 and 8 generated the same inputs")
	}
	if len(a.vectors) != smokeSizes.n || len(a.pool) != smokeSizes.pool || len(a.fresh) != 300 {
		t.Errorf("sizes: %d vectors, %d queries, %d fresh", len(a.vectors), len(a.pool), len(a.fresh))
	}
	// The stored set is the paper's data set 2 whatever the seed; the seed
	// draws the queries and the inserts.
	for i := range a.vectors {
		if !a.vectors[i].Equal(b.vectors[i]) {
			t.Fatalf("stored vector %d differs between seeds", i)
		}
	}
	same := 0
	for i := range a.pool {
		if a.pool[i].Equal(b.pool[i]) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d pool queries are equal under seeds 7 and 8", same)
	}
	if first := a.fresh[0].ID; first != uint64(smokeSizes.n+1) {
		t.Errorf("first fresh id = %d, want %d", first, smokeSizes.n+1)
	}
}

func TestSubSeedStreamsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for stream := uint64(1); stream <= 6; stream++ {
			s := subSeed(seed, stream)
			if s < 0 || seen[s] {
				t.Errorf("subSeed(%d, %d) = %d is negative or repeats", seed, stream, s)
			}
			seen[s] = true
		}
	}
}
