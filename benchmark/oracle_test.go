package main

import (
	"context"
	"testing"

	gausstree "github.com/gauss-tree/gausstree"
)

func TestLargest(t *testing.T) {
	got := largest([]float64{0.1, 0.7, 0.05, 0.7, 0.9, 0.2}, 3)
	want := []float64{0.9, 0.7, 0.7}
	for i := range want {
		if len(got) != 3 || got[i] != want[i] {
			t.Fatalf("largest = %v, want %v", got, want)
		}
	}
	if got := largest([]float64{0.3}, 3); len(got) != 1 || got[0] != 0.3 {
		t.Errorf("largest of a short slice = %v", got)
	}
}

// The oracle accepts what the index really answers and rejects each kind of
// wrong answer: a wrong id, a certified interval that misses the true
// probability, a dismissed qualifying object.
func TestOracleAcceptsRightAndRejectsWrongAnswers(t *testing.T) {
	in, err := makeInputs(5, smokeSizes, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := gausstree.New(in.dim)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(in.vectors); err != nil {
		t.Fatal(err)
	}
	kAns, tAns, err := treeAnswers(context.Background(), tree, in.pool, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{db: in.vectors}
	if checked, wrong, err := o.verify(kAns, tAns, 2); wrong != 0 || checked != 40 {
		t.Fatalf("true answers: %d checked, %d wrong: %v", checked, wrong, err)
	}

	clone := func(a answer) answer {
		a.matches = append([]gausstree.Match(nil), a.matches...)
		return a
	}
	// A wrong id: swap the best match for some vector that is not in the top 3.
	bad := clone(kAns[0])
	inTop := map[uint64]bool{}
	for _, m := range bad.matches {
		inTop[m.Vector.ID] = true
	}
	for _, v := range in.vectors {
		if !inTop[v.ID] {
			bad.matches[0].Vector = v
			bad.matches[0].ProbLow, bad.matches[0].ProbHigh = 0, 1
			break
		}
	}
	if _, wrong, _ := o.verify([]answer{bad}, nil, 1); wrong != 1 {
		t.Error("a k-MLIQ answer with a wrong id passed")
	}
	// An interval that misses the true probability.
	bad = clone(kAns[0])
	bad.matches[0].ProbLow, bad.matches[0].ProbHigh = 2, 3
	if _, wrong, _ := o.verify([]answer{bad}, nil, 1); wrong != 1 {
		t.Error("a certified interval that misses the true probability passed")
	}
	// A dismissed qualifying object: find a TIQ answer that returned
	// something and drop it.
	for _, a := range tAns {
		if len(a.matches) > 0 && a.matches[0].ProbLow > tiqTheta+1e-6 {
			bad = clone(a)
			bad.matches = bad.matches[1:]
			if _, wrong, _ := o.verify(nil, []answer{bad}, 1); wrong != 1 {
				t.Error("a TIQ answer missing a qualifying object passed")
			}
			return
		}
	}
	t.Skip("no checked TIQ answer certified an object above theta")
}
