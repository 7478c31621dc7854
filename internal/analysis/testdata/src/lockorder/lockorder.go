// Fixture for the lockorder analyzer's client-side checks: lock-order
// violations, shard-lock nesting, and pagefile I/O under a terminal shard
// lock, resolved through the cross-package Manager summary table.
package lockorder

import (
	"sync"

	"pagefile"
)

type cacheShard struct{ mu sync.Mutex }

type index struct {
	mu sync.Mutex
}

type engine struct {
	mgr    *pagefile.Manager
	shards [4]cacheShard
}

// good: outermost facade lock, then Manager I/O, then a shard lock — ranks
// strictly increase.
func (e *engine) goodOrder(t *index) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := e.mgr.Read(1); err != nil {
		return err
	}
	e.shards[0].mu.Lock()
	e.shards[0].mu.Unlock()
	return nil
}

// bad: shard locks are terminal — no pagefile I/O may run under one. The
// summarized Read also acquires ioMu, a rank violation of its own, and a
// cache shard lock, which is the lock already held.
func (e *engine) readUnderShard(id int) ([]byte, error) {
	s := &e.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return e.mgr.Read(id) // want "performs pagefile I/O while shard lock cacheShard.mu is held" "call acquires Manager.ioMu" "call re-acquires cacheShard.mu"
}

// bad: shard locks never nest, not even two shards of the same cache.
func (e *engine) nestedShards() {
	e.shards[0].mu.Lock()
	e.shards[1].mu.Lock() // want "cacheShard.mu acquired while already held"
	e.shards[1].mu.Unlock()
	e.shards[0].mu.Unlock()
}

// bad: the facade writer lock is outermost and may not be taken under a
// shard lock.
func (e *engine) badNesting(t *index) {
	e.shards[0].mu.Lock()
	t.mu.Lock() // want "acquiring index.mu"
	t.mu.Unlock()
	e.shards[0].mu.Unlock()
}
