package pagefile

import "sync"

// pageCache is the N-way sharded buffer cache behind a Manager. Pages are
// distributed over shards by a multiplicative hash of their id; each shard
// is an independently locked LRU, so cache hits from parallel queries only
// contend when they land on the same shard. Shard entries form an intrusive
// doubly linked recency list (no container/list allocations): a hit is a
// map lookup plus four pointer writes under one short shard lock.
//
// An entry holds a page's immutable image and, once a client has decoded it
// (Manager.ReadDecoded/WriteDecoded), the decoded form beside it — one page
// of the capacity, replaced and dropped with its image. A reader decodes
// outside every lock and attaches what it decoded only to the image it
// decoded it from, so a write that replaced the image meanwhile keeps its
// entry. An entry whose image the manager owns remembers it and retires it
// when the entry leaves or its image is replaced (see epoch.go).
//
// Sharding trades exact global LRU order for concurrency: eviction is
// least-recently-used *per shard*. Small caches (where per-shard capacities
// would degenerate and eviction tests care about exact global order) are
// automatically collapsed to a single shard — see cacheShardsFor.
type pageCache struct {
	shards []cacheShard
	mask   uint32
	// gens takes the owned images of entries that leave.
	gens *generations
}

type cacheShard struct {
	mu       sync.Mutex
	entries  map[PageID]*cacheEntry
	head     *cacheEntry // most recently used
	tail     *cacheEntry // least recently used
	capacity int         // max entries in this shard
}

type cacheEntry struct {
	id         PageID
	data       []byte  // page image
	decoded    any     // decoded form of data; nil until a client attaches one
	image      *[]byte // data, when the manager owns it; nil if not or escaped
	prev, next *cacheEntry
}

// maxCacheShards caps the shard count. 16 shards keep lock contention
// negligible for any realistic GOMAXPROCS while per-shard LRU state stays
// large enough to approximate global recency.
const maxCacheShards = 16

// minPagesPerShard is the smallest per-shard capacity the shard count allows:
// below it, sharded eviction would diverge visibly from global LRU without
// buying meaningful concurrency.
const minPagesPerShard = 64

// cacheShardsFor resolves the shard count for a cache of the given page
// capacity: the largest power of two up to maxCacheShards at which every
// shard still keeps a healthy LRU (minPagesPerShard), so tiny caches are one
// shard and behave exactly like a global LRU.
func cacheShardsFor(capacity int) int {
	if capacity <= 0 {
		return 0
	}
	n := maxCacheShards
	for n > 1 && capacity/n < minPagesPerShard {
		n >>= 1
	}
	return n
}

// newPageCache builds a cache of the given total page capacity split over
// the resolved shard count. capacity <= 0 disables caching entirely. gens
// takes the owned images of leaving entries.
func newPageCache(capacity int, gens *generations) pageCache {
	n := cacheShardsFor(capacity)
	if n == 0 {
		return pageCache{}
	}
	c := pageCache{shards: make([]cacheShard, n), mask: uint32(n - 1), gens: gens}
	for i := range c.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		c.shards[i] = cacheShard{entries: make(map[PageID]*cacheEntry, per), capacity: per}
	}
	return c
}

// enabled reports whether the cache holds pages at all.
func (c *pageCache) enabled() bool { return len(c.shards) > 0 }

// shardOf hashes a page id onto its shard. Fibonacci hashing spreads the
// dense sequential ids a Manager allocates evenly across shards without
// striding artifacts.
func (c *pageCache) shardOf(id PageID) *cacheShard {
	h := uint32(id) * 0x9E3779B9
	return &c.shards[(h>>16)&c.mask]
}

// get returns a page's image and its decoded form (nil if none is attached)
// and refreshes its recency. Both are owned by the cache (see
// Manager.ReadCounted). escape marks the entry's image escaped: the caller
// may keep it, or a form that views it, beyond any pin.
func (c *pageCache) get(id PageID, escape bool) (data []byte, decoded any, ok bool) {
	if !c.enabled() {
		return nil, nil, false
	}
	s := c.shardOf(id)
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		s.mu.Unlock()
		return nil, nil, false
	}
	s.moveToFront(e)
	data, decoded = e.data, e.decoded
	if escape {
		e.image = nil
	}
	s.mu.Unlock()
	return data, decoded, true
}

// insert caches a page's image, with its decoded form (nil: none yet),
// replacing the page's entry or evicting the shard's least recently used one
// when it is full. Ownership of both transfers to the cache, with image, the
// owned image data is (nil: none). Every shard holds at least one page.
func (c *pageCache) insert(id PageID, data []byte, decoded any, image *[]byte) {
	if !c.enabled() {
		return
	}
	s := c.shardOf(id)
	s.mu.Lock()
	e, ok := s.entries[id]
	switch {
	case ok:
		s.unlink(e)
		c.retire(e.image)
	case len(s.entries) >= s.capacity:
		// The evicted entry becomes the new one: entries never leave the
		// shard lock, so nothing else can hold it.
		e = s.tail
		c.drop(s, e)
		s.entries[id] = e
	default:
		e = &cacheEntry{}
		s.entries[id] = e
	}
	e.id, e.data, e.decoded, e.image = id, data, decoded, image
	s.pushFront(e)
	s.mu.Unlock()
}

// attach sets the decoded form of a page, decoded from data, or drops the
// page's entry when decoded is nil (the decode failed) — in either case only
// if the entry still holds data. An image is never recycled while a reader
// that may attach to it holds its pin, and an image no pin protects is never
// recycled, so the same address is the same image.
func (c *pageCache) attach(id PageID, data []byte, decoded any) {
	if !c.enabled() {
		return
	}
	s := c.shardOf(id)
	s.mu.Lock()
	if e, ok := s.entries[id]; ok && &e.data[0] == &data[0] {
		if decoded != nil {
			e.decoded = decoded
		} else {
			c.drop(s, e)
		}
	}
	s.mu.Unlock()
}

// drop unlinks an entry from its shard and retires its owned image. Caller
// holds s.mu.
func (c *pageCache) drop(s *cacheShard, e *cacheEntry) {
	s.unlink(e)
	delete(s.entries, e.id)
	c.retire(e.image)
}

// retire hands an owned image of a leaving entry to its grace period.
func (c *pageCache) retire(image *[]byte) {
	if image != nil {
		c.gens.retire(image)
	}
}

// remove drops a page from the cache (page freed or invalidated).
func (c *pageCache) remove(id PageID) {
	if !c.enabled() {
		return
	}
	s := c.shardOf(id)
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		c.drop(s, e)
	}
	s.mu.Unlock()
}

// clear empties every shard (the paper's cold start).
func (c *pageCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head; e != nil; e = e.next {
			c.retire(e.image)
		}
		clear(s.entries)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// len returns the total number of cached pages across all shards.
func (c *pageCache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// Intrusive recency-list primitives, called with the shard lock held.

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
