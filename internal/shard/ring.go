// Package shard is the horizontal-scaling layer of the serving stack: a
// rendezvous hash ring that assigns instance fingerprints to shards, and an
// HTTP router that proxies the popserved API onto a fleet of shared-nothing
// popserved workers.
//
// Placement is a pure function of (shard set, key): every router over the
// same shard list computes the same owner for every fingerprint, across
// processes and restarts, with no coordination state. Shards are
// shared-nothing — each runs its own registry, result cache and solver
// pool, so the hot path crosses no cross-shard lock; the router's
// only shared state is its own atomic counters. A single shard is the
// degenerate ring where every key maps to it, which is why the
// single-process popserved deployment is the one-router-zero-change special
// case of this layer.
//
// See Router for the proxy half (connection pooling, health checks, load
// shedding, replication) and cmd/poprouter for the daemon.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a rendezvous (highest-random-weight) hash ring over a fixed shard
// set. Rendezvous hashing is chosen over a point-on-circle scheme because it
// needs no virtual-node tuning to balance and has the minimal-disruption
// property by construction: adding or removing one shard of N only moves the
// keys whose top-scoring shard changed — an expected K/(N+1) (resp. the
// removed shard's K/N) of K keys — and never reshuffles a key between two
// surviving shards.
//
// A Ring is immutable after New; lookups are lock-free and safe for
// concurrent use.
type Ring struct {
	shards []string
}

// NewRing builds a ring over the given shard names (the router uses base
// URLs). Order does not affect placement — scores are computed per
// (shard, key) pair — so two routers configured with the same shards in any
// order agree on every owner. Duplicate or empty names are configuration
// errors.
func NewRing(shards []string) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("ring needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("duplicate shard %q", s)
		}
		seen[s] = true
	}
	return &Ring{shards: append([]string(nil), shards...)}, nil
}

// Len reports the number of shards.
func (r *Ring) Len() int { return len(r.shards) }

// score is the rendezvous weight of key on shard: FNV-1a over
// shard \x00 key. FNV-1a mixes the already-uniform SHA-256 fingerprint keys
// well (the balance test pins ±10% across 4 shards over the real key
// distribution) and is allocation-free via the stack-allocated hasher.
func score(shardName, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shardName))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// Replicas returns the top-n shards for key in descending score order; the
// first entry is the key's owner, the highest-scoring shard (the name
// ordering breaks astronomically unlikely score ties, so the choice stays
// deterministic). n is clamped to the shard count, so
// Replicas(key, Len()) is a full deterministic permutation of the shards —
// the router walks it as a failover order.
func (r *Ring) Replicas(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	type scored struct {
		name string
		sc   uint64
	}
	all := make([]scored, len(r.shards))
	for i, s := range r.shards {
		all[i] = scored{name: s, sc: score(s, key)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].sc != all[j].sc {
			return all[i].sc > all[j].sc
		}
		return all[i].name < all[j].name
	})
	out := make([]string, n)
	for i := range out {
		out[i] = all[i].name
	}
	return out
}
