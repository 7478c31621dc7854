package gausstree_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// flipBytes corrupts one byte per stride across the back half of a file —
// where copy-on-write places the most recently written (and therefore
// reachable) page versions — simulating bit rot under a live index.
func flipBytes(t *testing.T, path string, stride int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for off := fi.Size() / 2; off < fi.Size(); off += stride {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0xFF
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScrubCleanTree pins the happy path: a healthy index scrubs clean,
// reporting the pages and durable WAL records it verified.
func TestScrubCleanTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.gtree")
	tree, err := gausstree.New(2, gausstree.Options{Path: path, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := tree.Insert(seqVector(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := tree.Scrub(context.Background(), gausstree.ScrubOptions{})
	if err != nil {
		t.Fatalf("scrub of a clean tree: %v", err)
	}
	if rep.Pages == 0 {
		t.Error("scrub verified no pages")
	}
	if rep.WALRecords == 0 {
		t.Error("scrub verified no WAL records despite un-checkpointed inserts")
	}
	if rep.Elapsed <= 0 {
		t.Errorf("scrub reported non-positive elapsed %v", rep.Elapsed)
	}
}

// TestScrubDetectsPageRot flips bits in the page file under a live tree and
// requires the next scrub to report ErrCorrupt — the CRC trailers make
// silent on-disk damage loud before a query ever trips over it.
func TestScrubDetectsPageRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.gtree")
	tree, err := gausstree.New(2, gausstree.Options{Path: path, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if err := tree.Insert(seqVector(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Scrub(context.Background(), gausstree.ScrubOptions{}); err != nil {
		t.Fatalf("baseline scrub: %v", err)
	}

	flipBytes(t, path, 1024)

	_, err = tree.Scrub(context.Background(), gausstree.ScrubOptions{})
	if !errors.Is(err, gausstree.ErrCorrupt) {
		t.Fatalf("scrub of a rotted page file = %v, want errors.Is(ErrCorrupt)", err)
	}
}

// TestScrubDetectsWALRot corrupts the durable WAL prefix on disk and
// requires the scrub's log re-checksum to catch it.
func TestScrubDetectsWALRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "walrot.gtree")
	tree, err := gausstree.New(2, gausstree.Options{Path: path, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	for i := 0; i < 50; i++ {
		if err := tree.Insert(seqVector(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := tree.Scrub(context.Background(), gausstree.ScrubOptions{})
	if err != nil {
		t.Fatalf("baseline scrub: %v", err)
	}
	if rep.WALRecords == 0 {
		t.Fatal("baseline scrub verified no WAL records; the corruption below would be vacuous")
	}

	flipBytes(t, path+".wal", 64)

	_, err = tree.Scrub(context.Background(), gausstree.ScrubOptions{})
	if !errors.Is(err, gausstree.ErrCorrupt) {
		t.Fatalf("scrub of a rotted WAL = %v, want errors.Is(ErrCorrupt)", err)
	}
}

// TestScrubSharded verifies the sharded walk: a clean multi-shard index
// scrubs clean, and rot in any single shard surfaces with its shard index.
func TestScrubSharded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	s, err := gausstree.NewSharded(2, 3, gausstree.Options{Path: dir, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 150; i++ {
		if err := s.Insert(seqVector(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(context.Background(), gausstree.ScrubOptions{})
	if err != nil {
		t.Fatalf("scrub of a clean sharded index: %v", err)
	}
	if rep.Pages == 0 {
		t.Error("sharded scrub verified no pages")
	}

	// Rot exactly one shard's page file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".gtree" {
			flipBytes(t, filepath.Join(dir, name), 1024)
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatalf("no shard page file found in %s", dir)
	}
	_, err = s.Scrub(context.Background(), gausstree.ScrubOptions{})
	if !errors.Is(err, gausstree.ErrCorrupt) {
		t.Fatalf("scrub of a rotted shard = %v, want errors.Is(ErrCorrupt)", err)
	}
}

// TestScrubThrottleHonorsContext pins the rate limiter's interruptibility:
// a pass throttled to one page per second gives up promptly when its
// context expires instead of sleeping out the schedule.
func TestScrubThrottleHonorsContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.gtree")
	tree, err := gausstree.New(2, gausstree.Options{Path: path, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	for i := 0; i < 100; i++ {
		if err := tree.Insert(seqVector(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = tree.Scrub(ctx, gausstree.ScrubOptions{PagesPerSecond: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("throttled scrub with an expired context = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("throttled scrub took %v to notice its expired context", elapsed)
	}
}

// TestDamagedPageFileUnderAnOpenIndex damages the page file under an open
// index whose cache holds no page (CacheBytes below one page), so every
// read is a miss. Cut short, the file fails the queries that reach past the
// cut with an error naming a page there, and nothing crashes; scribbled
// over, it fails the next misses with pagefile.ErrChecksum.
func TestDamagedPageFileUnderAnOpenIndex(t *testing.T) {
	// A page file's data page id is slot 3+id, each pageSize+8 bytes long.
	const pageSize, slot = 1024, 1024 + 8
	for _, damage := range []string{"cut", "scribble"} {
		t.Run(damage, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), damage+".gtree")
			tree, err := gausstree.New(2, gausstree.Options{Path: path, PageSize: pageSize})
			if err != nil {
				t.Fatal(err)
			}
			const n = 600
			vs := make([]gausstree.Vector, n)
			for i := range vs {
				vs[i] = seqVector(i)
			}
			if err := tree.BulkLoad(vs); err != nil {
				t.Fatal(err)
			}
			if err := tree.Close(); err != nil {
				t.Fatal(err)
			}
			if tree, err = gausstree.Open(path, gausstree.Options{CacheBytes: 1}); err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			queryAll := func() (failed int, first error) {
				for _, v := range vs {
					if _, err := tree.KMostLikely(v, 1); err != nil {
						if first == nil {
							first = err
						}
						failed++
					}
				}
				return failed, first
			}
			if failed, err := queryAll(); failed > 0 {
				t.Fatalf("%d queries failed on the intact file: %v", failed, err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := info.Size() / 2
			if damage == "cut" {
				err = os.Truncate(path, cut)
			} else {
				flipBytes(t, path, pageSize)
			}
			if err != nil {
				t.Fatal(err)
			}
			failed, err := queryAll()
			if failed == 0 {
				t.Fatal("no query failed on the damaged file")
			}
			t.Logf("%d of %d queries failed; the first: %v", failed, n, err)
			if damage == "scribble" {
				if !errors.Is(err, pagefile.ErrChecksum) {
					t.Fatalf("query over a scribbled slot: %v, want pagefile.ErrChecksum", err)
				}
				return
			}
			var id int64
			at := strings.Index(err.Error(), "reading page ")
			if at < 0 {
				t.Fatalf("query past the cut: error %q names no page", err)
			}
			if _, serr := fmt.Sscanf(err.Error()[at:], "reading page %d", &id); serr != nil {
				t.Fatal(serr)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) || (3+id+1)*slot <= cut {
				t.Fatalf("query past the cut at %d bytes: %v, want io.ErrUnexpectedEOF on a page past it", cut, err)
			}
		})
	}
}
