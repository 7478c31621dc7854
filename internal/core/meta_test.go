package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// metaTree builds a default-configured two-level tree of 45 vectors on
// 512-byte pages and returns it with its manager.
func metaTree(t *testing.T) (*Tree, *pagefile.Manager) {
	t.Helper()
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(512), 512)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 45; i++ {
		if err := tr.Insert(pfv.MustNew(uint64(i+1), []float64{float64(i), 1}, []float64{0.5, 0.25})); err != nil {
			t.Fatal(err)
		}
	}
	return tr, mgr
}

// TestMetaRecordBytes pins the 35-byte v3 meta record of a default-configured
// tree byte for byte: the insert objective and the probe fanout are constants
// now, and the record still carries them where every earlier build wrote them.
func TestMetaRecordBytes(t *testing.T) {
	_, mgr := metaTree(t)
	want := []byte{
		3,          // version
		8, 0, 0, 0, // root page
		2, 0, 0, 0, // dimension
		2, 0, 0, 0, // height
		45, 0, 0, 0, 0, 0, 0, 0, // count
		0,    // split objective: hull integral
		0,    // insert objective: access cost
		3, 0, // probe fanout
		0,                      // combiner: additive
		0,                      // leaf format: exact
		0, 0, 0, 0, 0, 0, 0, 0, // applied LSN
	}
	if got := mgr.Meta(); !bytes.Equal(got, want) {
		t.Fatalf("meta record\n got %v\nwant %v", got, want)
	}
}

// TestOpenAcceptsWhatOlderBuildsWrote edits single bytes of a committed meta
// record to the values only older builds could write and reopens: a foreign
// insert objective is refused (such a tree cannot be continued), any positive
// probe fanout opens, and a record naming the v1 row-major leaves — leaf
// format byte 3, or meta version 1 — is refused as a bad format before a
// single page is read.
func TestOpenAcceptsWhatOlderBuildsWrote(t *testing.T) {
	reopen := func(t *testing.T, offset int, value byte) (*Tree, error) {
		t.Helper()
		_, mgr := metaTree(t)
		raw := mgr.Meta()
		raw[offset] = value
		if err := mgr.CommitMeta(raw); err != nil {
			t.Fatal(err)
		}
		return Open(mgr)
	}
	if _, err := reopen(t, 22, 1); err == nil || !strings.Contains(err.Error(), "insert objective 1") {
		t.Errorf("insert objective 1: Open = %v, want a refusal naming it", err)
	}
	if _, err := reopen(t, 23, 0); err == nil {
		t.Error("probe fanout 0 opened")
	}
	tr, err := reopen(t, 23, 7)
	if err != nil {
		t.Fatalf("probe fanout 7: %v", err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}

	for _, edit := range []struct {
		what   string
		offset int
		value  byte
	}{{"leaf format 3", 26, 3}, {"meta version 1", 0, 1}} {
		_, mgr := metaTree(t)
		raw := mgr.Meta()
		raw[edit.offset] = edit.value
		if err := mgr.CommitMeta(raw); err != nil {
			t.Fatal(err)
		}
		mgr.DropCache()
		before := mgr.Stats().LogicalReads
		_, err := Open(mgr)
		if !errors.Is(err, pagefile.ErrBadFormat) || !strings.Contains(err.Error(), "row-major") {
			t.Errorf("%s: Open = %v, want a pagefile.ErrBadFormat naming the row-major leaves", edit.what, err)
		}
		if reads := mgr.Stats().LogicalReads - before; reads != 0 {
			t.Errorf("%s: Open read %d pages before refusing", edit.what, reads)
		}
	}
	if _, err := reopen(t, 26, 4); err == nil {
		t.Error("leaf format 4 opened")
	}
}
