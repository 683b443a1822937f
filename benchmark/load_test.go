package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSameSeedSameSchedule(t *testing.T) {
	a := arrivals(7, 200, time.Second)
	if !slices.Equal(a, arrivals(7, 200, time.Second)) {
		t.Fatal("one seed gave two arrival schedules")
	}
	if n := len(a); n < 150 || n > 250 {
		t.Errorf("%d arrivals in 1 s at 200/s", n)
	}
	if slices.Equal(a, arrivals(8, 200, time.Second)) {
		t.Error("two seeds gave one arrival schedule")
	}
	draws := func(seed, i int64) []uint64 {
		r := newOpRand(seed, i)
		out := make([]uint64, 8)
		for k := range out {
			out[k] = r.next()
		}
		return out
	}
	if !slices.Equal(draws(7, 42), draws(7, 42)) {
		t.Fatal("one (seed, op) gave two op contents")
	}
	if slices.Equal(draws(7, 42), draws(7, 43)) || slices.Equal(draws(7, 42), draws(8, 42)) {
		t.Error("distinct (seed, op) pairs gave one op content")
	}
}

// TestOpenLoopChargesStall: a server that stalls once for 100 ms, serving
// one request at a time, delays every op that came due during the stall,
// and the open loop charges each of them from its due time — not from when
// it finally got sent, which is what a closed loop would measure.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	var (
		mu           sync.Mutex
		once         sync.Once
		stallEnd     time.Time
		stallStarted = make(chan time.Time, 1)
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		once.Do(func() {
			stallStarted <- time.Now()
			time.Sleep(stall)
			stallEnd = time.Now()
		})
	}))
	defer ts.Close()
	c := newClient(ts)
	defer c.close()

	var dmu sync.Mutex
	dispatched := map[int64]time.Time{}
	op := func(ctx context.Context, i int64, ot *opTrace) error {
		dmu.Lock()
		dispatched[i] = time.Now()
		dmu.Unlock()
		buf := bufPool.Get().(*bytes.Buffer)
		defer bufPool.Put(buf)
		_, err := c.do(ctx, ot, requestID(i, 0), http.MethodGet, "/", "", nil, buf)
		return err
	}
	p := openLoop(context.Background(), op, nil, 1, 0, 200, 500*time.Millisecond)
	if p.failed != 0 {
		t.Fatalf("%d ops failed: %v", p.failed, p.firstErr)
	}
	start := <-stallStarted
	during := 0
	for k, lat := range p.lat {
		sent := dispatched[int64(k)]
		if sent.Before(start) || !sent.Before(stallEnd.Add(-10*time.Millisecond)) {
			continue
		}
		during++
		if owed := ms(stallEnd.Sub(sent)); lat < owed-1 {
			t.Errorf("op %d due %.1f ms before the stall ended measured %.1f ms", k, owed, lat)
		}
	}
	if during < 5 {
		t.Fatalf("only %d ops came due during the stall", during)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, err := percentile(sample(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if v, err := percentile(sample(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(sample(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if v, err := percentile(sample(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples accepted")
	}
}
