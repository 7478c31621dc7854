package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// TestSentinelWrapping pins the error contract the errwrap analyzer
// enforces: every argument-validation failure must satisfy
// errors.Is(err, ErrInvalidArg), and invariant violations must satisfy
// errors.Is(err, ErrCorrupt), so callers (and the remote facade) can branch
// on the sentinel instead of matching message text.
func TestSentinelWrapping(t *testing.T) {
	tr := newTree(t, 2, 512, Config{})
	v := pfv.MustNew(1, []float64{1, 1}, []float64{1, 1})
	ctx := context.Background()

	if _, _, err := tr.KMLIQRanked(ctx, v, 0); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("KMLIQRanked(k=0) = %v; want errors.Is ErrInvalidArg", err)
	}
	if _, _, err := tr.KMLIQ(ctx, v, -3, 0); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("KMLIQ(k=-3) = %v; want errors.Is ErrInvalidArg", err)
	}
	if _, _, err := tr.TIQ(ctx, v, 1.5, 0); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("TIQ(1.5) = %v; want errors.Is ErrInvalidArg", err)
	}
	if _, _, err := tr.TIQ(ctx, v, -0.1, 0); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("TIQ(-0.1) = %v; want errors.Is ErrInvalidArg", err)
	}

	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(512), 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(mgr, 0, Config{}); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("New(dim=0) = %v; want errors.Is ErrInvalidArg", err)
	}
}

// TestCheckInvariantsWrapsErrCorrupt damages a healthy three-level tree one
// way per row — in-package surgery, each page rewritten in place through
// persistNode, so its trailer is valid and only its content is wrong — and
// requires both checks to report it wrapping ErrCorrupt: CheckInvariants
// over the cached pages and Scrub over pages read past the cache. want is a
// fragment of the violation each row must be reported as.
func TestCheckInvariantsWrapsErrCorrupt(t *testing.T) {
	rows := []struct {
		name, want string
		damage     func(t *testing.T, tr *Tree)
	}{
		{"entry box widened", "box is not", func(t *testing.T, tr *Tree) {
			rewriteRoot(t, tr, func(root *node) { root.children[0].box.Mu[0].Hi++ })
		}},
		{"entry box shrunk", "box is not", func(t *testing.T, tr *Tree) {
			rewriteRoot(t, tr, func(root *node) {
				mu := &root.children[0].box.Mu[0]
				mu.Hi = mu.Lo + (mu.Hi-mu.Lo)/2
			})
		}},
		// The two counts still sum to Len: only the entry is wrong.
		{"entry count off by one", "count", func(t *testing.T, tr *Tree) {
			rewriteRoot(t, tr, func(root *node) { root.children[0].count++; root.children[1].count-- })
		}},
		{"underfull leaf", "fill", func(t *testing.T, tr *Tree) {
			rewriteFirstLeaf(t, tr, func(vs []pfv.Vector) []pfv.Vector { return vs[:tr.minLeaf-1] })
		}},
		// An exact page holds at most capLeaf vectors, so the overfull
		// leaf is a full page under a capacity one smaller.
		{"overfull leaf", "fill", func(t *testing.T, tr *Tree) {
			rewriteFirstLeaf(t, tr, func(vs []pfv.Vector) []pfv.Vector {
				for len(vs) < tr.capLeaf {
					vs = append(vs, vs[0])
				}
				return vs
			})
			tr.capLeaf--
		}},
		{"leaves above height-1", "depth", func(t *testing.T, tr *Tree) {
			tr.height++
			tr.publish()
		}},
		{"vector with zero sigma", "invalid", func(t *testing.T, tr *Tree) {
			rewriteFirstLeaf(t, tr, func(vs []pfv.Vector) []pfv.Vector {
				vs[0].Sigma[1] = 0
				return vs
			})
		}},
		// A snapshot whose count disagrees with the stored vectors.
		// Production code can only publish through the WAL-ordered path.
		{"Len mismatch", "Len", func(t *testing.T, tr *Tree) {
			tr.count++
			tr.publish()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tr := newTree(t, 2, 512, Config{})
			rng := rand.New(rand.NewSource(41))
			for i := 0; i < 200; i++ {
				v := pfv.MustNew(uint64(i), []float64{rng.Float64() * 100, rng.Float64() * 100}, []float64{0.5 + rng.Float64(), 0.5 + rng.Float64()})
				if err := tr.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Height() < 3 {
				t.Fatalf("height %d: the surgeries need inner nodes below the root", tr.Height())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("healthy tree: CheckInvariants = %v", err)
			}
			if _, err := tr.Scrub(context.Background(), nil); err != nil {
				t.Fatalf("healthy tree: Scrub = %v", err)
			}
			row.damage(t, tr)
			if err := tr.CheckInvariants(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), row.want) {
				t.Errorf("CheckInvariants = %v; want errors.Is ErrCorrupt naming %q", err, row.want)
			}
			if _, err := tr.Scrub(context.Background(), nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), row.want) {
				t.Errorf("Scrub = %v; want errors.Is ErrCorrupt naming %q", err, row.want)
			}
		})
	}
}

// rewriteRoot edits a writer's copy of the root and writes it back over the
// root's own page.
func rewriteRoot(t *testing.T, tr *Tree, edit func(root *node)) {
	t.Helper()
	root, err := tr.readNode(tr.root, pagefile.Pin{})
	if err != nil {
		t.Fatal(err)
	}
	root = root.clone(tr.dim)
	edit(root)
	if err := tr.persistNode(root); err != nil {
		t.Fatal(err)
	}
}

// rewriteFirstLeaf edits the vectors of the first leaf in pre-order, a
// non-root leaf, and writes them back over the leaf's own page.
func rewriteFirstLeaf(t *testing.T, tr *Tree, edit func([]pfv.Vector) []pfv.Vector) {
	t.Helper()
	n, err := tr.readNode(tr.root, pagefile.Pin{})
	for err == nil && !n.leaf {
		n, err = tr.readNode(n.children[0].page, pagefile.Pin{})
	}
	if err != nil {
		t.Fatal(err)
	}
	n = n.clone(tr.dim)
	n.vectors = edit(n.vectors)
	if err := tr.persistNode(n); err != nil {
		t.Fatal(err)
	}
}
