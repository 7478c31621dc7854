package analysis_test

import (
	"testing"

	"github.com/gauss-tree/gausstree/internal/analysis"
	"github.com/gauss-tree/gausstree/internal/analysis/analysistest"
)

// Each analyzer runs over fixture packages holding at least one flagged bad
// shape and one passing good shape; several bad shapes are distilled from
// real pre-fix violations in this repository (see the fixture comments).

func TestEpochOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.EpochOrder, "epochorder")
}

func TestLockOrder(t *testing.T) {
	// The pagefile mirror loads first so the lockorder fixture can import
	// it; analyzing the mirror itself also exercises the drift check.
	analysistest.Run(t, "testdata", analysis.LockOrder, "pagefile", "lockorder")
}

func TestPoolReset(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.PoolReset, "poolreset")
}

func TestErrWrap(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ErrWrap, "errwrap")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxFlow, "ctxflow", "ctxflowserving")
}

func TestWALDurable(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.WALDurable, "waldurable")
}

func TestNilness(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Nilness, "nilness")
}

func TestUnusedWrite(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.UnusedWrite, "unusedwrite")
}

func TestObsRegister(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ObsRegister, "obs")
}

func TestByName(t *testing.T) {
	as, err := analysis.ByName("epochorder,lockorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "epochorder" || as[1].Name != "lockorder" {
		t.Fatalf("ByName returned %v", as)
	}
	if _, err := analysis.ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer name")
	}
	if all, err := analysis.ByName(""); err != nil || len(all) != 9 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want the full suite of 9", len(all), err)
	}
}
