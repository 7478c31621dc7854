package analysis_test

import (
	"testing"

	"github.com/gauss-tree/gausstree/internal/analysis"
	"github.com/gauss-tree/gausstree/internal/analysis/analysistest"
)

// Each analyzer runs over fixture packages holding at least one flagged bad
// shape and one passing good shape; several bad shapes are distilled from
// real pre-fix violations in this repository (see the fixture comments).

func TestPoolReset(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.PoolReset, "poolreset")
}

func TestErrWrap(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ErrWrap, "errwrap")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxFlow, "ctxflow", "ctxflowserving")
}

// TestAll: the suite the vet tool runs is the three analyzers, sorted by name.
func TestAll(t *testing.T) {
	all := analysis.All()
	if len(all) != 3 {
		t.Fatalf("All() = %d analyzers, want the full suite of 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("All() not sorted by name: %s before %s", all[i-1].Name, all[i].Name)
		}
	}
}
