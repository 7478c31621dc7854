package query

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// Kind selects which Engine method a batched Request invokes.
type Kind uint8

const (
	// KindKMLIQ runs Engine.KMLIQ (k most likely, with probabilities).
	KindKMLIQ Kind = iota
	// KindKMLIQRanked runs Engine.KMLIQRanked (ranking only).
	KindKMLIQRanked
	// KindTIQ runs Engine.TIQ (threshold query).
	KindTIQ
)

// Request is one identification query of a batch.
type Request struct {
	Kind Kind
	// Query is the probabilistic query vector.
	Query pfv.Vector
	// K is the result size for the k-MLIQ kinds.
	K int
	// PTheta is the probability threshold for KindTIQ.
	PTheta float64
	// Accuracy is the absolute certification accuracy (see Engine).
	Accuracy float64
}

// Response pairs one request's results with its per-query statistics.
type Response struct {
	Results []Result
	Stats   Stats
	Err     error
}

// BatchExecutor runs many identification queries concurrently against one
// Engine through a fixed-size worker pool. It relies on engines being safe
// for concurrent readers, which every backend in this repository is (the
// shared page manager is mutex-guarded with atomic counters, and the decoded
// caches of the individual engines are reader-safe).
type BatchExecutor struct {
	engine  Engine
	workers int
}

// NewBatchExecutor creates an executor with the given concurrency; workers
// <= 0 defaults to GOMAXPROCS.
func NewBatchExecutor(engine Engine, workers int) *BatchExecutor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &BatchExecutor{engine: engine, workers: workers}
}

// Do dispatches a single request to the engine.
func (b *BatchExecutor) Do(ctx context.Context, r Request) Response {
	var resp Response
	switch r.Kind {
	case KindKMLIQ:
		resp.Results, resp.Stats, resp.Err = b.engine.KMLIQ(ctx, r.Query, r.K, r.Accuracy)
	case KindKMLIQRanked:
		resp.Results, resp.Stats, resp.Err = b.engine.KMLIQRanked(ctx, r.Query, r.K)
	case KindTIQ:
		resp.Results, resp.Stats, resp.Err = b.engine.TIQ(ctx, r.Query, r.PTheta, r.Accuracy)
	default:
		resp.Err = fmt.Errorf("query: unknown request kind %d", r.Kind)
	}
	return resp
}

// Execute runs every request and returns the responses in request order.
// Up to Workers requests are in flight at once. A cancelled context stops
// the dispatch promptly: requests never started report ctx.Err() in their
// Response (requests the engine aborted already carry it) — Execute itself
// always returns a full slice.
func (b *BatchExecutor) Execute(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	started := make([]bool, len(reqs))
	workers := b.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				started[i] = true
				out[i] = b.Do(ctx, reqs[i])
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range out {
			if !started[i] {
				out[i].Err = err
			}
		}
	}
	return out
}
