package main

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: "p", Start: 0, End: 100},
		{ID: "a", Parent: "p", Start: 10, End: 40},
		{ID: "b", Parent: "p", Start: 30, End: 60},   // overlaps a
		{ID: "c", Parent: "p", Start: 90, End: 120},  // runs past the parent
		{ID: "d", Parent: "p", Start: 150, End: 160}, // outside the parent
		{ID: "e", Parent: "a", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	// p is covered on [10,60] and [90,100]: 60 of its 100.
	want := []int64{40, 25, 30, 30, 10, 5}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].ID, self[i], want[i])
		}
	}
}

// TestLayerMeansAddUp builds the span tree the harness records for a routed
// request — op, connection wait, exchange, router handler, shard handler —
// with random gaps, and checks that the layers' mean self times sum to the
// mean op latency.
func TestLayerMeansAddUp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var spans []span
	ms := func() int64 { return int64(1e5 + rng.Intn(3e6)) }
	for i := range 500 {
		op := strconv.Itoa(i)
		rid := op + ".0"
		t0 := int64(i) * 1e8
		conn := t0 + ms()
		router := conn + ms()
		shard := router + ms()
		shardEnd := shard + ms()
		routerEnd := shardEnd + ms()
		end := routerEnd + ms()
		opEnd := end + ms()
		spans = append(spans,
			span{Trace: op, ID: op, Name: "bench.op", Start: t0, End: opEnd},
			span{Trace: op, ID: rid + "/conn", Parent: op, Name: "bench.conn_wait", Start: t0, End: conn},
			span{Trace: op, ID: rid, Parent: op, Name: "http.exchange", Start: conn, End: end},
			span{Trace: op, ID: rid + "/shard", Parent: rid, Name: "shard.handler", Start: router, End: routerEnd},
			span{Trace: op, ID: rid + "/serve", Parent: rid + "/shard", Name: "serve.handler_solve", Start: shard, End: shardEnd},
		)
	}
	agg := aggregate(spans)
	root := agg["bench.op"]
	sum := 0.0
	for _, a := range agg {
		sum += a.own / a.count()
	}
	if rootMean := root.dur / root.count(); math.Abs(sum-rootMean) > 0.05*rootMean {
		t.Errorf("layer self means sum to %.3f ms, op mean is %.3f ms", sum, rootMean)
	}
	// The client-visible layers alone explain all but the op's own gaps.
	explained := agg["bench.conn_wait"].dur + agg["http.exchange"].dur
	if got, want := explained/root.dur, 1-root.own/root.dur; math.Abs(got-want) > 1e-9 {
		t.Errorf("explained share %v, want %v", got, want)
	}
}
