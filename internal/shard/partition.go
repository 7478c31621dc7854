package shard

import "github.com/gauss-tree/gausstree/internal/pfv"

// Partitioner assigns vectors to shards at mutation time: a splitmix64
// finalizer over the object id, so each id lands on a stable shard regardless
// of insertion order, repeated observations of one object stay colocated and
// an exact-match Delete probes exactly one shard. It is the only routing —
// the type remains for the name manifests record and for New's signature.
type Partitioner struct{}

// HashByID returns the partitioner.
func HashByID() Partitioner { return Partitioner{} }

// Name identifies the policy in manifests and reports.
func (Partitioner) Name() string { return "hash-id" }

// Place returns the shard index in [0, shards) for a vector.
func (Partitioner) Place(v pfv.Vector, shards int) int {
	return int(splitmix64(v.ID) % uint64(shards))
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed 64-bit hash
// that keeps sequential ids from piling onto one shard.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Split groups vectors by their target shard in one pass (for batch loads).
func Split(p Partitioner, vs []pfv.Vector, shards int) [][]pfv.Vector {
	groups := make([][]pfv.Vector, shards)
	for _, v := range vs {
		i := p.Place(v, shards)
		groups[i] = append(groups[i], v)
	}
	return groups
}
