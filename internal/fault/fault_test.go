package fault

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree/internal/pagefile"
)

func TestDisarmedInjectsNothing(t *testing.T) {
	inj := New()
	for i := 0; i < 1000; i++ {
		if d := inj.decide(OpPageWrite); d.err != nil {
			t.Fatalf("disarmed injector injected a fault: %v", d.err)
		}
	}
	var nilInj *Injector
	if d := nilInj.decide(OpPageRead); d.err != nil {
		t.Fatalf("nil injector injected a fault: %v", d.err)
	}
}

func TestProbOneAlwaysFires(t *testing.T) {
	inj := New()
	if err := inj.Arm(Schedule{Seed: 1, Ops: map[Op]Rule{OpWALSync: {Prob: 1}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		err := inj.BeforeWALSync()
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: want ErrInjected, got %v", i, err)
		}
	}
	// Other ops are untouched.
	if err := inj.BeforeWALWrite(); err != nil {
		t.Fatalf("unscheduled op faulted: %v", err)
	}
	st := inj.Status()
	if !st.Armed || st.Injected[OpWALSync] != 10 || st.Seen[OpWALSync] != 10 {
		t.Fatalf("status = %+v", st)
	}
}

func TestAfterCountdown(t *testing.T) {
	inj := New()
	if err := inj.Arm(Schedule{Seed: 1, Ops: map[Op]Rule{OpPageWrite: {After: 3}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if d := inj.decide(OpPageWrite); d.err != nil {
			t.Fatalf("write %d should pass: %v", i, d.err)
		}
	}
	if d := inj.decide(OpPageWrite); !errors.Is(d.err, ErrInjected) {
		t.Fatalf("write 4 should fault, got %v", d.err)
	}
}

func TestMaxFaultsCapsInjection(t *testing.T) {
	inj := New()
	if err := inj.Arm(Schedule{Seed: 1, Ops: map[Op]Rule{OpPageWrite: {Prob: 1, MaxFaults: 2}}}); err != nil {
		t.Fatal(err)
	}
	faults := 0
	for i := 0; i < 20; i++ {
		if d := inj.decide(OpPageWrite); d.err != nil {
			faults++
		}
	}
	if faults != 2 {
		t.Fatalf("injected %d faults, want exactly 2", faults)
	}
}

func TestDisarmStops(t *testing.T) {
	inj := New()
	if err := inj.Arm(Schedule{Seed: 1, Ops: map[Op]Rule{OpPageRead: {Prob: 1}}}); err != nil {
		t.Fatal(err)
	}
	if d := inj.decide(OpPageRead); d.err == nil {
		t.Fatal("armed injector did not fire")
	}
	inj.Disarm()
	if d := inj.decide(OpPageRead); d.err != nil {
		t.Fatalf("disarmed injector fired: %v", d.err)
	}
}

func TestDurationAutoDisarms(t *testing.T) {
	inj := New()
	if err := inj.Arm(Schedule{Seed: 1, DurationMS: 1, Ops: map[Op]Rule{OpPageRead: {Prob: 1}}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if d := inj.decide(OpPageRead); d.err != nil {
		t.Fatalf("expired schedule fired: %v", d.err)
	}
	if inj.Status().Armed {
		t.Fatal("expired schedule still reports armed")
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	if err := (Schedule{Ops: map[Op]Rule{"warp_drive": {Prob: 1}}}).Validate(); err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := (Schedule{Ops: map[Op]Rule{OpPageRead: {Prob: 1.5}}}).Validate(); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := (Schedule{Ops: map[Op]Rule{OpPageRead: {After: -1}}}).Validate(); err == nil {
		t.Fatal("negative after accepted")
	}
}

func TestWrapBackendFaultsAndTornWrites(t *testing.T) {
	mem := pagefile.NewMemBackend(128)
	inj := New()
	b := WrapBackend(mem, inj)
	if WrapBackend(mem, nil) != pagefile.Backend(mem) {
		t.Fatal("nil injector should return the backend unwrapped")
	}

	page := make([]byte, 128)
	for i := range page {
		page[i] = byte(i)
	}
	if err := b.WritePage(0, page); err != nil {
		t.Fatalf("disarmed write: %v", err)
	}

	// Clean write fault: the page keeps its old content.
	if err := inj.Arm(Schedule{Seed: 1, Ops: map[Op]Rule{OpPageWrite: {Prob: 1}}}); err != nil {
		t.Fatal(err)
	}
	changed := make([]byte, 128)
	for i := range changed {
		changed[i] = 0xAA
	}
	if err := b.WritePage(0, changed); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected write fault, got %v", err)
	}
	inj.Disarm()
	got, err := b.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[10] != 10 {
		t.Fatal("clean write fault modified the page")
	}

	// Torn write fault: half the new data lands.
	if err := inj.Arm(Schedule{Seed: 1, Ops: map[Op]Rule{OpPageWrite: {Prob: 1, Torn: true}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePage(0, changed); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected torn write fault, got %v", err)
	}
	inj.Disarm()
	if got, err = b.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	if changed[120] != 0xAA {
		t.Fatal("the torn write wrote to the image it was given")
	}
	if got[10] != 0xAA || got[120] != 0 {
		t.Fatalf("torn write should keep the first half (got[10]=%#x) and zero the rest (got[120]=%#x)", got[10], got[120])
	}

	// Read and sync faults.
	if err := inj.Arm(Schedule{Seed: 1, Ops: map[Op]Rule{
		OpPageRead: {Prob: 1},
		OpPageSync: {Prob: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadPage(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected read fault, got %v", err)
	}
	if err := b.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected sync fault, got %v", err)
	}
}

// TestWrapBackendForwardsReadInto: the wrapper has the read-into method
// exactly when the inner backend has it, reads into the image it is given,
// and fails it on a page-read fault as it fails ReadPage.
func TestWrapBackendForwardsReadInto(t *testing.T) {
	inj := New()
	if _, ok := WrapBackend(pagefile.NewMemBackend(128), inj).(pagefile.ImageReader); ok {
		t.Error("the wrapper of a backend without the read-into method has it")
	}
	fb, err := pagefile.CreateFile(filepath.Join(t.TempDir(), "pages"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	b := WrapBackend(fb, inj)
	r, ok := b.(pagefile.ImageReader)
	if !ok {
		t.Fatal("the wrapper of a file backend does not read into images")
	}
	page := bytes.Repeat([]byte{7}, 128)
	if err := b.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	into := make([]byte, 128)
	got, err := r.ReadPageInto(0, into)
	if err != nil || !bytes.Equal(got, page) || &got[0] != &into[0] {
		t.Fatalf("read into an image: %v, same bytes %v, into the image given %v", err, bytes.Equal(got, page), err == nil && &got[0] == &into[0])
	}
	if err := inj.Arm(Schedule{Seed: 1, Ops: map[Op]Rule{OpPageRead: {Prob: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPageInto(0, into); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected read fault, got %v", err)
	}
}
