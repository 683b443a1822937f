package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/onesided"
	"repro/popmatch"
)

func strictInstance(t *testing.T, seed int64, n int) *onesided.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return onesided.Solvable(rng, n, n/4+1, 4)
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestRegistryIdempotentUpload(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ins := strictInstance(t, 1, 50)
	snap1, created1, err := s.Upload(ins)
	if err != nil || !created1 {
		t.Fatalf("first upload: %v created=%v", err, created1)
	}
	// The same content from an independent construction lands on the same id.
	snap2, created2, err := s.Upload(ins.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if created2 {
		t.Fatal("identical content re-created a snapshot")
	}
	if snap1 != snap2 {
		t.Fatal("identical content produced distinct snapshots")
	}
	if got := len(s.Instances()); got != 1 {
		t.Fatalf("registry holds %d instances, want 1", got)
	}
}

func TestRegistryFullAndEvict(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInstances: 2})
	a, _, err := s.Upload(strictInstance(t, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Upload(strictInstance(t, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Upload(strictInstance(t, 3, 10)); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("third upload: %v, want ErrRegistryFull", err)
	}
	if !s.Evict(a.ID) {
		t.Fatal("evict of registered instance failed")
	}
	if s.Evict(a.ID) {
		t.Fatal("double evict succeeded")
	}
	if _, _, err := s.Upload(strictInstance(t, 3, 10)); err != nil {
		t.Fatalf("upload after evict: %v", err)
	}
}

func TestSolveUnknownInstance(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if _, _, err := s.Solve(context.Background(), "deadbeef", popmatch.ModePopular); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("got %v, want ErrUnknownInstance", err)
	}
}

func TestSolveModesAndCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	strict, _, err := s.Upload(strictInstance(t, 7, 40))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	capSnap, _, err := s.Upload(onesided.RandomCapacitated(rng, 30, 15, 2, 4, 3))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		snap *Snapshot
		mode popmatch.Mode
	}{
		{strict, popmatch.ModePopular}, {strict, popmatch.ModeMaxCard}, {strict, popmatch.ModeTies}, {strict, popmatch.ModeTiesMax},
		{capSnap, popmatch.ModePopular}, {capSnap, popmatch.ModeMaxCard}, {capSnap, popmatch.ModeTiesMax},
	} {
		out, cached, err := s.Solve(ctx, tc.snap.ID, tc.mode)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.snap.ID, tc.mode, err)
		}
		if cached {
			t.Fatalf("%s/%s: first solve reported cached", tc.snap.ID, tc.mode)
		}
		if out.Exists {
			// Round-trip through the verify surface: the solver's answer
			// must verify popular via the independent margin oracle.
			popular, margin, err := s.Verify(ctx, tc.snap.ID, out.PostOf)
			if err != nil {
				t.Fatalf("%s/%s verify: %v", tc.snap.ID, tc.mode, err)
			}
			if !popular {
				t.Fatalf("%s/%s: solver output rejected, margin %d", tc.snap.ID, tc.mode, margin)
			}
		}
		// Repeat query: served from cache, kernel untouched.
		before := s.stats.Solves.Load()
		out2, cached2, err := s.Solve(ctx, tc.snap.ID, tc.mode)
		if err != nil || !cached2 {
			t.Fatalf("%s/%s repeat: err=%v cached=%v", tc.snap.ID, tc.mode, err, cached2)
		}
		if out2 != out {
			t.Fatalf("%s/%s repeat: cache returned a different outcome object", tc.snap.ID, tc.mode)
		}
		if after := s.stats.Solves.Load(); after != before {
			t.Fatalf("%s/%s repeat: kernel invoked on cache hit (%d -> %d)", tc.snap.ID, tc.mode, before, after)
		}
	}

	// Capacitated outcomes expose rosters; unit ones do not.
	out, _, err := s.Solve(ctx, capSnap.ID, popmatch.ModePopular)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exists && out.AssignedTo == nil {
		t.Fatal("capacitated outcome without rosters")
	}
}

func TestCacheEvictionOnInstanceEvict(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	snap, _, err := s.Upload(strictInstance(t, 9, 30))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModePopular); err != nil {
		t.Fatal(err)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", s.cache.Len())
	}
	s.Evict(snap.ID)
	if s.cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after evict, want 0", s.cache.Len())
	}
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModePopular); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("solve after evict: %v, want ErrUnknownInstance", err)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := newResultCache(2)
	o := &Outcome{}
	c.Put(cacheKey{id: "a", mode: popmatch.ModePopular}, o)
	c.Put(cacheKey{id: "b", mode: popmatch.ModePopular}, o)
	if _, ok := c.Get(cacheKey{id: "a", mode: popmatch.ModePopular}); !ok {
		t.Fatal("a missing")
	}
	c.Put(cacheKey{id: "c", mode: popmatch.ModePopular}, o) // evicts b (a was refreshed)
	if _, ok := c.Get(cacheKey{id: "b", mode: popmatch.ModePopular}); ok {
		t.Fatal("b survived beyond capacity")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok := c.Get(cacheKey{id: id, mode: popmatch.ModePopular}); !ok {
			t.Fatalf("%s missing", id)
		}
	}
}

// TestEvictInstanceDropsEveryKeyShape is the regression test for the evict
// bug: the old implementation probed cacheKey{id, mode} for each mode in the
// global popmatch.Modes list, so any key carrying an out-of-list mode survived
// eviction and leaked until LRU pressure pushed it out (while staying
// servable for a deleted id). A session line, whose key carries a nonzero
// epoch, must go too.
func TestEvictInstanceDropsEveryKeyShape(t *testing.T) {
	c := newResultCache(8)
	o := &Outcome{}
	c.Put(cacheKey{id: "x", mode: popmatch.ModePopular}, o)
	c.Put(cacheKey{id: "x", mode: popmatch.Mode(99)}, o)              // not in popmatch.Modes
	c.Put(cacheKey{id: "s", mode: popmatch.ModePopular, epoch: 7}, o) // session line
	c.Put(cacheKey{id: "y", mode: popmatch.ModePopular}, o)
	c.EvictInstance("x")
	c.EvictInstance("s")
	if got := c.Len(); got != 1 {
		t.Fatalf("cache holds %d entries after evicting x and s, want 1", got)
	}
	if _, ok := c.Get(cacheKey{id: "s", mode: popmatch.ModePopular, epoch: 7}); ok {
		t.Fatal("session line survived EvictInstance")
	}
	if _, ok := c.Get(cacheKey{id: "x", mode: popmatch.Mode(99)}); ok {
		t.Fatal("foreign-mode key survived EvictInstance")
	}
	if _, ok := c.Get(cacheKey{id: "y", mode: popmatch.ModePopular}); !ok {
		t.Fatal("unrelated instance was evicted")
	}
}

// TestCacheLineFollowsEpoch pins the one-line-per-(id, mode) rule: a line
// answers only its own epoch, a newer epoch replaces it in place, and an
// older Put cannot roll it back.
func TestCacheLineFollowsEpoch(t *testing.T) {
	c := newResultCache(8)
	o1, o2 := &Outcome{Size: 1}, &Outcome{Size: 2}
	k := func(epoch uint64) cacheKey { return cacheKey{id: "s", mode: popmatch.ModePopular, epoch: epoch} }
	c.Put(k(1), o1)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("epoch 1 line answered epoch 2")
	}
	c.Put(k(2), o2)
	if got := c.Len(); got != 1 {
		t.Fatalf("cache holds %d lines for one (id, mode), want 1", got)
	}
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("replaced epoch 1 still answers")
	}
	c.Put(k(1), o1)
	if out, ok := c.Get(k(2)); !ok || out != o2 {
		t.Fatal("an older Put rolled the line back")
	}
}

// TestMicroBatchingCoalescesConcurrentLoad checks that concurrent requests
// for the same (instance, mode) share solves, and the flight accounting.
func TestMicroBatchingCoalescesConcurrentLoad(t *testing.T) {
	// Cache off so every request reaches a flight.
	s := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	snaps := make([]*Snapshot, 4)
	for i := range snaps {
		snap, _, err := s.Upload(strictInstance(t, int64(100+i), 60))
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = snap
	}
	// Hold every solve slot until all clients have issued their first
	// request, so the first round of requests provably meets in flights.
	holdSlots(s)
	const clients = 24
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, _, err := s.Solve(context.Background(), snaps[(g+i)%len(snaps)].ID, popmatch.ModePopular); err != nil {
					t.Errorf("client %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	waitFor(t, "every client to wait on a flight", func() bool { return s.stats.BatchedRequests.Load() == clients })
	releaseSlots(s)
	wg.Wait()
	st := s.Stats()
	if st["coalesced"] == 0 || st["max_batch"] < 2 {
		t.Fatalf("no request coalescing observed: stats %v", st)
	}
	if st["batches"]+st["coalesced"] != st["batched_requests"] {
		t.Fatalf("accounting mismatch: batches %d + coalesced %d != batched %d",
			st["batches"], st["coalesced"], st["batched_requests"])
	}
	if st["solves"]+st["coalesced"] != st["batched_requests"] {
		t.Fatalf("accounting mismatch: solves %d + coalesced %d != batched %d",
			st["solves"], st["coalesced"], st["batched_requests"])
	}
}

// holdSlots takes every solve slot of s, so each new flight waits for one.
func holdSlots(s *Server) {
	for range cap(s.flights.slots) {
		s.flights.slots <- struct{}{}
	}
}

// releaseSlots frees the slots holdSlots took.
func releaseSlots(s *Server) {
	for range cap(s.flights.slots) {
		<-s.flights.slots
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitingFlights reads how many flights wait for a solve slot.
func waitingFlights(s *Server) int {
	s.flights.mu.Lock()
	defer s.flights.mu.Unlock()
	return s.flights.waiting
}

// solveAsync runs s.Solve on its own goroutine and delivers its error.
func solveAsync(ctx context.Context, s *Server, id string, mode popmatch.Mode) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Solve(ctx, id, mode)
		done <- err
	}()
	return done
}

func TestAdmissionControlRejectsWhenFull(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1, MaxQueue: 2})
	snap, _, err := s.Upload(strictInstance(t, 11, 300))
	if err != nil {
		t.Fatal(err)
	}
	// With every slot held, two flights (two modes of one instance) fill
	// the MaxQueue=2 wait bound.
	holdSlots(s)
	popular := solveAsync(context.Background(), s, snap.ID, popmatch.ModePopular)
	maxcard := solveAsync(context.Background(), s, snap.ID, popmatch.ModeMaxCard)
	waitFor(t, "two flights waiting for a slot", func() bool { return waitingFlights(s) == 2 })
	// A third key would leave three flights waiting: refused.
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModeTies); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("solve against a full wait bound: %v, want ErrOverloaded", err)
	}
	if got := s.Stats()["rejected"]; got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	// A request for a key already in flight joins it instead of queueing.
	joined := solveAsync(context.Background(), s, snap.ID, popmatch.ModePopular)
	waitFor(t, "the join", func() bool { return s.stats.Coalesced.Load() == 1 })
	// Everything admitted completes once the slots are free.
	releaseSlots(s)
	for name, done := range map[string]<-chan error{"popular": popular, "maxcard": maxcard, "joined": joined} {
		if err := <-done; err != nil {
			t.Fatalf("%s solve: %v", name, err)
		}
	}
	if st := s.Stats(); st["solves"] != 2 || st["max_batch"] != 2 {
		t.Fatalf("want 2 solves serving at most 2 requests each: stats %v", st)
	}
}

// TestNegativeMaxQueueMeansMinimalQueue is the regression test for the
// admission-control config bug: a negative MaxQueue used to clamp to 0,
// which refuses a solve whenever the slots are busy — an otherwise idle
// server rejected traffic at random. The defined semantics are "minimal
// queueing" = one waiting flight.
func TestNegativeMaxQueueMeansMinimalQueue(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1, MaxQueue: -1})
	if got := s.cfg.MaxQueue; got != 1 {
		t.Fatalf("MaxQueue=-1 resolved to %d, want 1", got)
	}
	snap, _, err := s.Upload(strictInstance(t, 23, 40))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModePopular); err != nil {
			t.Fatalf("solve %d with MaxQueue=-1: %v", i, err)
		}
	}
	holdSlots(s)
	waiting := solveAsync(context.Background(), s, snap.ID, popmatch.ModePopular)
	waitFor(t, "one flight waiting for a slot", func() bool { return waitingFlights(s) == 1 })
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModeMaxCard); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second waiting flight with MaxQueue=-1: %v, want ErrOverloaded", err)
	}
	releaseSlots(s)
	if err := <-waiting; err != nil {
		t.Fatalf("waiting flight: %v", err)
	}
}

// TestAbandonedWaiterCountedAndHarmless pins the waiter count of a flight: a
// caller whose context ends while it waits gets its context error at once
// and is counted in stats, and the shared solve carries on for the waiter
// that remains.
func TestAbandonedWaiterCountedAndHarmless(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	snap, _, err := s.Upload(strictInstance(t, 29, 300))
	if err != nil {
		t.Fatal(err)
	}
	holdSlots(s)
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := solveAsync(ctx, s, snap.ID, popmatch.ModePopular)
	waitFor(t, "the first flight", func() bool { return waitingFlights(s) == 1 })
	patient := solveAsync(context.Background(), s, snap.ID, popmatch.ModePopular)
	waitFor(t, "the join", func() bool { return s.stats.Coalesced.Load() == 1 })
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned solve returned %v, want context.Canceled", err)
	}
	if got := s.stats.Abandoned.Load(); got != 1 {
		t.Fatalf("abandoned counter %d, want 1", got)
	}
	releaseSlots(s)
	if err := <-patient; err != nil {
		t.Fatalf("remaining waiter: %v", err)
	}
	if got := s.stats.Solves.Load(); got != 1 {
		t.Fatalf("%d solves, want the one shared solve", got)
	}
}

// TestFlightLeftByEveryWaiterIsNotReused is the regression test for joining
// a dead flight: once every waiter has left, the flight's solve is cancelled,
// so the next request for its key must start a fresh solve rather than
// inherit context.Canceled.
func TestFlightLeftByEveryWaiterIsNotReused(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	snap, _, err := s.Upload(strictInstance(t, 31, 300))
	if err != nil {
		t.Fatal(err)
	}
	holdSlots(s)
	ctx, cancel := context.WithCancel(context.Background())
	left := solveAsync(ctx, s, snap.ID, popmatch.ModePopular)
	waitFor(t, "the flight", func() bool { return waitingFlights(s) == 1 })
	cancel()
	if err := <-left; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	releaseSlots(s)
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModePopular); err != nil {
		t.Fatalf("solve after every waiter left: %v", err)
	}
	if st := s.Stats(); st["batches"] != 2 || st["coalesced"] != 0 {
		t.Fatalf("want a second flight, not a join: stats %v", st)
	}
}

// TestCloseFailsSlotWaiters checks Close against flights waiting for a solve
// slot: their requests get ErrServerClosed, and every goroutine the server
// started is gone afterwards.
func TestCloseFailsSlotWaiters(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 1, CacheSize: -1})
	snap, _, err := s.Upload(strictInstance(t, 37, 300))
	if err != nil {
		t.Fatal(err)
	}
	holdSlots(s)
	var waiters []<-chan error
	for _, mode := range []popmatch.Mode{popmatch.ModePopular, popmatch.ModePopular, popmatch.ModeMaxCard} {
		waiters = append(waiters, solveAsync(context.Background(), s, snap.ID, mode))
	}
	waitFor(t, "three waiting requests", func() bool { return s.stats.BatchedRequests.Load() == 3 })
	s.Close()
	for i, done := range waiters {
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Fatalf("waiter %d: %v, want ErrServerClosed", i, err)
		}
	}
	if got := s.stats.Solves.Load(); got != 0 {
		t.Fatalf("%d solves ran after Close", got)
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

func TestPerRequestCancellation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	snap, _, err := s.Upload(strictInstance(t, 13, 5000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Solve(ctx, snap.ID, popmatch.ModePopular); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSolveTimeoutConfig(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1, SolveTimeout: time.Nanosecond})
	snap, _, err := s.Upload(strictInstance(t, 17, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModePopular); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
}

func TestModeErrorsSurfaceCleanly(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// A tied, non-capacitated instance cannot take the strict popular path.
	rng := rand.New(rand.NewSource(3))
	snap, _, err := s.Upload(onesided.RandomTies(rng, 20, 15, 1, 4, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModePopular); err == nil {
		t.Fatal("strict solve of a tied instance succeeded")
	}
	// The same instance solves fine in ties mode.
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModeTies); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseFailsPendingAndRejectsNew(t *testing.T) {
	s := New(Config{Workers: 1})
	snap, _, err := s.Upload(strictInstance(t, 19, 50))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModePopular); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModeMaxCard); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("solve after close: %v, want ErrServerClosed", err)
	}
}

func TestVerifyRejectsBadAssignments(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ins, err := onesided.NewCapacitated([]int32{1, 1}, [][]int32{{0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := s.Upload(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong length.
	if _, _, err := s.Verify(context.Background(), snap.ID, []int32{0}); err == nil {
		t.Fatal("short post_of accepted")
	}
	// Over capacity.
	if _, _, err := s.Verify(context.Background(), snap.ID, []int32{0, 0}); err == nil {
		t.Fatal("over-capacity assignment accepted")
	}
	// A non-popular but structurally valid assignment: both applicants on
	// last resorts loses to any real assignment.
	popular, margin, err := s.Verify(context.Background(), snap.ID, []int32{snap.Ins.LastResort(0), snap.Ins.LastResort(1)})
	if err != nil {
		t.Fatal(err)
	}
	if popular || margin <= 0 {
		t.Fatalf("all-last-resort assignment judged popular (margin %d)", margin)
	}
}

// TestBatchedStrictPathMatchesDirectSolver cross-checks served popular
// solves against direct solver calls on the same snapshots.
func TestBatchedStrictPathMatchesDirectSolver(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	direct := popmatch.NewSolver(popmatch.Options{Workers: 1})
	defer direct.Close()
	for i := 0; i < 4; i++ {
		snap, _, err := s.Upload(strictInstance(t, int64(200+i), 40))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := s.Solve(context.Background(), snap.ID, popmatch.ModePopular)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.SolveRequest(context.Background(), snap.Ins, popmatch.Request{Mode: popmatch.ModePopular})
		if err != nil {
			t.Fatal(err)
		}
		if out.Exists != want.Exists || out.Size != want.Size {
			t.Fatalf("instance %d: served (exists=%v size=%d) vs direct (exists=%v size=%d)",
				i, out.Exists, out.Size, want.Exists, want.Size)
		}
	}
}
