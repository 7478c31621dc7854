//go:build race

package shard

// raceEnabled: the race detector makes sync.Pool drop Puts at random, so
// pooled query state is reallocated and allocation counts mean nothing.
const raceEnabled = true
