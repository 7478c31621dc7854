package gausstree_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree"
)

// copyFile snapshots src to dst byte-for-byte; copying a live index mid-
// mutation is how these tests freeze "the disk at crash time".
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryLiveCopy freezes the on-disk state in the middle of a
// write burst — without closing the tree, exactly what a crash leaves
// behind — and requires the reopened copy to be a commit-consistent prefix
// of the acknowledged inserts with intact invariants.
func TestCrashRecoveryLiveCopy(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.gtree")
	tree, err := gausstree.New(2, gausstree.Options{Path: live, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	const n = 700 // crosses the checkpoint interval, so copies see both meta and WAL state
	for i := 0; i < n; i++ {
		if err := tree.Insert(seqVector(i)); err != nil {
			t.Fatal(err)
		}
		// Freeze the disk at a few acknowledged points mid-burst.
		if i == 100 || i == 511 || i == 512 || i == 650 {
			snap := filepath.Join(dir, fmt.Sprintf("snap-%d.gtree", i))
			copyFile(t, live, snap)
			copyFile(t, live+".wal", snap+".wal")

			re, err := gausstree.Open(snap)
			if err != nil {
				t.Fatalf("reopen at %d: %v", i, err)
			}
			if got := re.Len(); got != i+1 {
				re.Close()
				t.Fatalf("crash copy at %d recovered %d vectors, want %d (all were acknowledged)", i, got, i+1)
			}
			seen := map[uint64]bool{}
			if err := re.ForEach(func(v gausstree.Vector) error {
				seen[v.ID] = true
				return nil
			}); err != nil {
				re.Close()
				t.Fatal(err)
			}
			for id := uint64(1); id <= uint64(i+1); id++ {
				if !seen[id] {
					re.Close()
					t.Fatalf("crash copy at %d misses id %d", i, id)
				}
			}
			if err := re.CheckInvariants(); err != nil {
				re.Close()
				t.Fatalf("crash copy at %d: %v", i, err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// crashChildEnv flags the subprocess mode of TestCrashRecoveryKill9.
const crashChildEnv = "GAUSSTREE_CRASH_CHILD_DIR"

// The crash child's writers: writer w ingests crashVector(w, 0), (w, 1), …
// in order, so what it attempted is known without being told and what
// survives of it must be a prefix.
const (
	crashWriters = 8
	crashStride  = 1_000_000 // ids per writer
)

func crashVector(w, seq int) gausstree.Vector { return seqVector(w*crashStride + seq) }

// TestCrashChildMain is not a test of its own: invoked by
// TestCrashRecoveryKill9 in a subprocess, it ingests from crashWriters
// goroutines forever — alternating Insert and 1–4-vector InsertAll, so the
// log's group commits carry several writers' records of both kinds — and
// reports on stdout each acknowledged vector as "acked <writer> <seq> <mean
// group size so far>" until it is killed.
func TestCrashChildMain(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("subprocess helper; run via TestCrashRecoveryKill9")
	}
	tree, err := gausstree.New(2, gausstree.Options{
		Path:          filepath.Join(dir, "crash.gtree"),
		PageSize:      1024,
		CommitLatency: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // serializes stdout lines
	var wg sync.WaitGroup
	for w := 0; w < crashWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq, step := 0, 0; ; step++ {
				n := 1
				var err error
				if step%2 == 0 {
					err = tree.Insert(crashVector(w, seq))
				} else {
					n = 1 + step/2%4
					batch := make([]gausstree.Vector, n)
					for i := range batch {
						batch[i] = crashVector(w, seq+i)
					}
					_, err = tree.InsertAll(batch)
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Acknowledged — durable by contract even if we die right now.
				ws, _ := tree.WALStats()
				mu.Lock()
				for i := 0; i < n; i++ {
					fmt.Printf("acked %d %d %.2f\n", w, seq+i, ws.MeanGroupSize)
				}
				mu.Unlock()
				seq += n
			}
		}(w)
	}
	wg.Wait()
}

// TestCrashRecoveryKill9 hard-kills (SIGKILL) a subprocess mid-ingest — with
// eight writers inside every commit window, mid-group-commit of a
// multi-record group — then reopens the index and verifies the
// no-lost-acknowledged-writes contract: acknowledged ⊆ recovered ⊆ attempted,
// what is recovered of each writer is a prefix of what it attempted, and
// invariants hold.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run", "^TestCrashChildMain$", "-test.v")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Track each writer's acknowledged count until the kill lands.
	var acked [crashWriters]int
	groupSize := 0.0
	note := func(line string) {
		var w, seq int
		var group float64
		if n, _ := fmt.Sscanf(line, "acked %d %d %f", &w, &seq, &group); n == 3 && w >= 0 && w < crashWriters {
			acked[w] = max(acked[w], seq+1)
			groupSize = group
		}
	}
	lines := bufio.NewScanner(stdout)
	deadline := time.After(2 * time.Second)
	killed := false
	for !killed && lines.Scan() {
		note(lines.Text())
		select {
		case <-deadline:
			if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			killed = true
		default:
		}
	}
	for lines.Scan() { // drain anything written before the kill landed
		note(lines.Text())
	}
	cmd.Wait() // reaps the SIGKILLed child; its error is expected
	if !killed {
		t.Fatal("child exited on its own before the kill")
	}
	if groupSize <= 1 {
		t.Fatalf("the child's last mean group size was %.2f: the kill landed among groups of one and tested nothing a single writer does not", groupSize)
	}

	re, err := gausstree.Open(filepath.Join(dir, "crash.gtree"))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var recovered [crashWriters]map[int]bool
	for w := range recovered {
		recovered[w] = map[int]bool{}
	}
	if err := re.ForEach(func(v gausstree.Vector) error {
		w, seq := int(v.ID-1)/crashStride, int(v.ID-1)%crashStride
		if w >= crashWriters || recovered[w][seq] {
			return fmt.Errorf("recovered id %d, which no writer attempted once", v.ID)
		}
		recovered[w][seq] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	totalAcked := 0
	for w, seqs := range recovered {
		if len(seqs) < acked[w] {
			t.Fatalf("writer %d: recovered %d vectors but %d were acknowledged: lost writes", w, len(seqs), acked[w])
		}
		for seq := 0; seq < len(seqs); seq++ {
			if !seqs[seq] {
				t.Fatalf("writer %d: recovered %d vectors but not its vector %d: not a prefix of what it attempted", w, len(seqs), seq)
			}
		}
		totalAcked += acked[w]
	}
	if totalAcked == 0 {
		t.Fatal("child never acknowledged an insert")
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("killed after %d acks at mean group size %.2f; recovered %d vectors", totalAcked, groupSize, re.Len())
}

// TestCrashRecoveryShardedLiveCopy is the sharded variant of the live-copy
// crash: each shard recovers from its own checkpoint + WAL tail, and the
// union must contain every acknowledged insert.
func TestCrashRecoveryShardedLiveCopy(t *testing.T) {
	dir := t.TempDir()
	liveDir := filepath.Join(dir, "live")
	s, err := gausstree.NewSharded(2, 3, gausstree.Options{Path: liveDir, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Insert(seqVector(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Freeze the whole directory without closing.
	re, err := gausstree.OpenSharded(crashCopy(t, liveDir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != n {
		t.Fatalf("recovered %d vectors, want %d (all acknowledged)", got, n)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
