package eval

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// TestEnginesDoNotAlias: no engine hands out a vector it keeps, and none
// keeps a vector it was handed. Over all four engines of one Build, a
// repeated query must answer the same after the caller scribbles over every
// vector a k-MLIQ, a ranked k-MLIQ and a TIQ returned, and again after it
// scribbles over the vectors it gave Build.
func TestEnginesDoNotAlias(t *testing.T) {
	p := dataset.DefaultSyntheticParams()
	p.N = 2000
	ds, err := dataset.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(ds, Setup{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Vectors[17].Clone()
	q.ID = 0
	ctx := context.Background()
	scribble := func(v pfv.Vector) {
		for i := range v.Mean {
			v.Mean[i], v.Sigma[i] = 1e6, 1e6
		}
	}

	// ask runs the three queries on every engine and renders each answer
	// (ids, log-density and probability bits); it returns the answers' vectors
	// too, for the caller to scribble over.
	ask := func() (map[string]string, []pfv.Vector) {
		out := map[string]string{}
		var handed []pfv.Vector
		for _, eng := range e.All() {
			for _, op := range []string{"kmliq", "ranked", "tiq"} {
				var res []query.Result
				var err error
				switch op {
				case "kmliq":
					res, _, err = eng.Engine.KMLIQ(ctx, q, 3, 0)
				case "ranked":
					res, _, err = eng.Engine.KMLIQRanked(ctx, q, 3)
				default:
					res, _, err = eng.Engine.TIQ(ctx, q, 0.2, 0)
				}
				if err != nil {
					t.Fatalf("%s %s: %v", eng.Engine.Name(), op, err)
				}
				var b strings.Builder
				for _, r := range res {
					fmt.Fprintf(&b, "%d:%x:%x ", r.Vector.ID, math.Float64bits(r.LogDensity), math.Float64bits(r.Probability))
					handed = append(handed, r.Vector)
				}
				out[eng.Engine.Name()+" "+op] = b.String()
			}
		}
		return out, handed
	}
	same := func(stage string, want, got map[string]string) {
		t.Helper()
		for key, w := range want {
			if got[key] != w {
				t.Errorf("%s: %s answers %q, before %q", stage, key, got[key], w)
			}
		}
	}

	want, handed := ask()
	for _, v := range handed {
		scribble(v)
	}
	got, _ := ask()
	same("after scribbling over returned vectors", want, got)
	for _, v := range ds.Vectors {
		scribble(v)
	}
	got, _ = ask()
	same("after scribbling over the vectors given to Build", want, got)
}
