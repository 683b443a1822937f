package serve

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/popmatch"
)

// flight is one kernel solve of an (instance, mode) key, shared by every
// cache-missing request for that key that arrives before it delivers. out
// and err are written once, before done closes; waiters and served are
// guarded by the flight table's mutex.
type flight struct {
	done   chan struct{}
	out    *Outcome
	err    error
	cancel context.CancelFunc

	// waiters counts the requests still waiting for the result: the last one
	// to leave cancels the solve and unmaps the key, so a later request for
	// the key starts a fresh flight instead of joining a cancelled one.
	waiters int
	// served counts the requests that started or joined the flight.
	served int
}

// flightTable maps each key being solved to its flight and bounds the
// solves that run at once with a semaphore of GOMAXPROCS slots. A flight
// that finds every slot busy waits for one; MaxQueue bounds how many wait.
type flightTable struct {
	mu      sync.Mutex
	m       map[cacheKey]*flight
	waiting int // flights waiting for a slot
	closed  bool

	slots chan struct{}  // a send takes a solve slot, a receive frees it
	quit  chan struct{}  // closed by close: slot-waiters fail with ErrServerClosed
	wg    sync.WaitGroup // flight goroutines
}

func newFlightTable() flightTable {
	return flightTable{
		m:     make(map[cacheKey]*flight),
		slots: make(chan struct{}, runtime.GOMAXPROCS(0)),
		quit:  make(chan struct{}),
	}
}

// close stops admission, fails the flights still waiting for a slot and
// waits for running solves to finish. Idempotent.
func (ft *flightTable) close() {
	ft.mu.Lock()
	if !ft.closed {
		ft.closed = true
		close(ft.quit)
	}
	ft.mu.Unlock()
	ft.wg.Wait()
}

// solveShared answers a cache miss of snap in mode: it joins the flight
// already solving that key or starts one, then waits for the flight's
// result or for ctx to end. Starting a flight that would leave more than
// MaxQueue flights waiting for a solve slot fails with ErrOverloaded.
func (s *Server) solveShared(ctx context.Context, snap *Snapshot, mode popmatch.Mode) (*Outcome, error) {
	key := cacheKey{id: snap.ID, mode: mode}
	ft := &s.flights
	ft.mu.Lock()
	if ft.closed {
		ft.mu.Unlock()
		return nil, ErrServerClosed
	}
	f, joined := ft.m[key]
	if joined {
		s.stats.Coalesced.Add(1)
	} else {
		slotted := true
		select {
		case ft.slots <- struct{}{}:
		default:
			if ft.waiting >= s.cfg.MaxQueue {
				ft.mu.Unlock()
				s.stats.Rejected.Add(1)
				return nil, ErrOverloaded
			}
			ft.waiting++
			slotted = false
		}
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), cancel: cancel}
		ft.m[key] = f
		s.stats.Batches.Add(1)
		ft.wg.Add(1)
		go s.fly(fctx, key, snap, f, slotted)
	}
	f.waiters++
	f.served++
	s.stats.BatchedRequests.Add(1)
	s.stats.MaxBatch.Max(int64(f.served))
	ft.mu.Unlock()

	select {
	case <-f.done:
		return f.out, f.err
	case <-ctx.Done():
		ft.mu.Lock()
		if f.waiters--; f.waiters == 0 {
			f.cancel()
			if ft.m[key] == f {
				delete(ft.m, key)
			}
		}
		ft.mu.Unlock()
		s.stats.Abandoned.Add(1)
		return nil, ctx.Err()
	}
}

// fly runs one flight: it waits for a solve slot unless admission already
// took one, solves, caches the outcome, unmaps the key and wakes every
// waiter. The flush histogram times it from start to result.
func (s *Server) fly(ctx context.Context, key cacheKey, snap *Snapshot, f *flight, slotted bool) {
	ft := &s.flights
	defer ft.wg.Done()
	start := time.Now()
	if !slotted {
		select {
		case ft.slots <- struct{}{}:
			slotted = true
		case <-ctx.Done():
			f.err = ctx.Err()
		case <-ft.quit:
			f.err = ErrServerClosed
		}
		ft.mu.Lock()
		ft.waiting--
		ft.mu.Unlock()
	}
	if slotted {
		f.out, f.err = s.kernelSolve(ctx, snap, popmatch.Request{Mode: key.mode})
		<-ft.slots
	}
	if f.err == nil {
		s.cache.Put(key, f.out)
		// A concurrent Evict may have purged the cache between the
		// requester's registry lookup and the Put above; Evict removes the
		// registry entry before it touches the cache, so re-checking
		// membership here (and undoing the Put) guarantees one of the two
		// purges wins — a deleted instance never leaves a resurrected cache
		// line behind.
		if _, live := s.registry.Get(snap.ID); !live {
			s.cache.EvictInstance(snap.ID)
		}
	}
	ft.mu.Lock()
	if ft.m[key] == f {
		delete(ft.m, key)
	}
	ft.mu.Unlock()
	s.metrics.flush.Observe(time.Since(start).Nanoseconds())
	close(f.done)
	f.cancel()
}

// kernelSolve runs one kernel solve of snap and freezes its result.
func (s *Server) kernelSolve(ctx context.Context, snap *Snapshot, req popmatch.Request) (*Outcome, error) {
	s.stats.Solves.Add(1)
	s.metrics.modeSolve(req.Mode, 1)
	t0 := time.Now()
	res, err := s.solver.SolveRequest(ctx, snap.Ins, req)
	s.metrics.solve.Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		s.stats.SolveErrors.Add(1)
		return nil, err
	}
	return outcomeOf(snap.Posts, res), nil
}
