// The fault layer imports pagefile, so its tests against a real Manager live
// in the external test package.
package pagefile_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gauss-tree/gausstree/internal/fault"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

func arm(t *testing.T, inj *fault.Injector, op fault.Op, rule fault.Rule) {
	t.Helper()
	if err := inj.Arm(fault.Schedule{Seed: 1, Ops: map[fault.Op]fault.Rule{op: rule}}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultBackendBudget(t *testing.T) {
	inj := fault.New()
	arm(t, inj, fault.OpPageWrite, fault.Rule{After: 2})
	m, err := pagefile.NewManager(fault.WrapBackend(pagefile.NewMemBackend(64), inj), 64)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.Allocate()
	b, _ := m.Allocate()
	c, _ := m.Allocate()
	if err := m.Write(a, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(b, []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(c, []byte("3")); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("third write error = %v, want ErrInjected", err)
	}
	// Meta writes still pass until a meta_write rule is armed.
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	if got := inj.Status().Injected[fault.OpPageWrite]; got != 1 {
		t.Errorf("page-write faults = %d, want 1", got)
	}
	arm(t, inj, fault.OpMetaWrite, fault.Rule{Prob: 1})
	if err := m.CommitMeta(nil); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("meta write error = %v, want ErrInjected", err)
	}
	if got := inj.Status().Injected[fault.OpMetaWrite]; got != 1 {
		t.Errorf("meta-write faults = %d, want 1", got)
	}
}

func TestFaultBackendTornWrite(t *testing.T) {
	inner := pagefile.NewMemBackend(64)
	inj := fault.New()
	arm(t, inj, fault.OpPageWrite, fault.Rule{Prob: 1, Torn: true})
	m, err := pagefile.NewManager(fault.WrapBackend(inner, inj), 64)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := m.Allocate()
	data := bytes.Repeat([]byte("z"), 64)
	if err := m.Write(id, data); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	// The tear must have half-applied at the inner backend.
	got, err := inner.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:32], data[:32]) || got[40] != 0 {
		t.Error("torn write should leave first half new, second half zero")
	}
}
