package query

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// fakeEngine answers every query with one result whose ID encodes the
// request, so ordering is verifiable without a real backend.
type fakeEngine struct {
	calls atomic.Int64
}

func (f *fakeEngine) Name() string { return "fake" }

func (f *fakeEngine) answer(q pfv.Vector, tag uint64) ([]Result, Stats, error) {
	f.calls.Add(1)
	return []Result{{Vector: pfv.Vector{ID: q.ID*10 + tag}}}, Stats{PageAccesses: 1}, nil
}

func (f *fakeEngine) KMLIQ(ctx context.Context, q pfv.Vector, k int, accuracy float64) ([]Result, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	return f.answer(q, 1)
}

func (f *fakeEngine) KMLIQRanked(ctx context.Context, q pfv.Vector, k int) ([]Result, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	return f.answer(q, 2)
}

func (f *fakeEngine) TIQ(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) ([]Result, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	return f.answer(q, 3)
}

func TestBatchExecutorOrderAndDispatch(t *testing.T) {
	eng := &fakeEngine{}
	ex := NewBatchExecutor(eng, 3)
	var reqs []Request
	for i := 0; i < 50; i++ {
		reqs = append(reqs, Request{Kind: Kind(i % 3), Query: pfv.Vector{ID: uint64(i)}, K: 1, PTheta: 0.5})
	}
	resps := ex.Execute(context.Background(), reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
	}
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		wantTag := map[Kind]uint64{KindKMLIQ: 1, KindKMLIQRanked: 2, KindTIQ: 3}[reqs[i].Kind]
		want := reqs[i].Query.ID*10 + wantTag
		if len(resp.Results) != 1 || resp.Results[0].Vector.ID != want {
			t.Errorf("request %d: got %v, want ID %d", i, resp.Results, want)
		}
	}
	if got := eng.calls.Load(); got != int64(len(reqs)) {
		t.Errorf("engine saw %d calls, want %d", got, len(reqs))
	}
}

func TestBatchExecutorUnknownKind(t *testing.T) {
	ex := NewBatchExecutor(&fakeEngine{}, 1)
	resp := ex.Do(context.Background(), Request{Kind: Kind(99)})
	if resp.Err == nil {
		t.Error("unknown kind must error")
	}
}

func TestBatchExecutorDefaults(t *testing.T) {
	ex := NewBatchExecutor(&fakeEngine{}, 0)
	if ex.workers <= 0 {
		t.Errorf("workers = %d", ex.workers)
	}
	if got := ex.Execute(context.Background(), nil); len(got) != 0 {
		t.Errorf("empty batch returned %d responses", len(got))
	}
}

func TestKindAndStatsStrings(t *testing.T) {
	s := Stats{PageAccesses: 7, NodesVisited: 3, VectorsScored: 40, CandidatesRetained: 2, EarlyTermination: true}
	if got := s.String(); got != "pages=7 nodes=3 scored=40 retained=2 early" {
		t.Errorf("Stats.String() = %q", got)
	}
	sum := s.Add(Stats{PageAccesses: 3, NodesVisited: 1})
	if sum.PageAccesses != 10 || sum.NodesVisited != 4 || !sum.EarlyTermination {
		t.Errorf("Add = %+v", sum)
	}
	if fmt.Sprint(sum.VectorsScored) != "40" {
		t.Errorf("VectorsScored = %d", sum.VectorsScored)
	}
}
