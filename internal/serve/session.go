package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/onesided"
	"repro/popmatch"
)

// A Session is a mutable fork of a registered instance plus the warm-start
// state to re-match it incrementally. Registered snapshots stay immutable —
// creating a session clones the snapshot, and from then on the clone evolves
// through the mutation API (SetPreferences / AddApplicant / RemoveApplicant /
// SetCapacity) while re-matches ride the delta solver: only the components
// of the reduced graph touched since the previous solve are re-peeled,
// bit-identical to a full solve.
//
// Concurrency: all session operations serialize on the session's own mutex
// (a delta solve reads and writes the warm state, and the instance's cached
// CSR is patched in place by mutations). Sessions therefore never share a
// flight — flights coalesce identical read-only solves, which mutable
// per-session instances can never share. Distinct sessions solve
// concurrently on the shared solver pool.
type Session struct {
	// ID names the session ("s-" + random hex); Source is the fingerprint of
	// the registered snapshot it was forked from. Both immutable.
	ID     string
	Source string

	mu        sync.Mutex
	ins       *onesided.Instance
	delta     popmatch.DeltaSession
	res       popmatch.Result // recycled Into buffers for delta solves
	mutations int64
	created   time.Time
}

// ErrUnknownSession is returned when a request names a session id the server
// does not hold.
var ErrUnknownSession = errors.New("unknown session")

// ErrTooManySessions is returned by CreateSession when the server holds its
// configured maximum of live sessions.
var ErrTooManySessions = errors.New("too many live sessions")

// sessionTable is the id-keyed store of live sessions.
type sessionTable struct {
	mu    sync.RWMutex
	max   int
	m     map[string]*Session
	order []string
}

func (t *sessionTable) add(sess *Session) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.max > 0 && len(t.m) >= t.max {
		return ErrTooManySessions
	}
	if t.m == nil {
		t.m = make(map[string]*Session)
	}
	t.m[sess.ID] = sess
	t.order = append(t.order, sess.ID)
	return nil
}

func (t *sessionTable) get(id string) (*Session, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sess, ok := t.m[id]
	return sess, ok
}

func (t *sessionTable) remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[id]; !ok {
		return false
	}
	delete(t.m, id)
	for i, v := range t.order {
		if v == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	return true
}

func (t *sessionTable) list() []*Session {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Session, 0, len(t.m))
	for _, id := range t.order {
		out = append(out, t.m[id])
	}
	return out
}

func (t *sessionTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// SessionInfo is a point-in-time description of a session (the wire form).
// Epoch is the instance's mutation epoch: it advances with every applied
// mutation, tells a cached re-match result whether it is still current, and
// lets a client detect concurrent writers to a shared session.
type SessionInfo struct {
	ID         string `json:"id"`
	Source     string `json:"source"`
	Applicants int    `json:"applicants"`
	Posts      int    `json:"posts"`
	Epoch      uint64 `json:"epoch"`
	Mutations  int64  `json:"mutations"`
}

func (sess *Session) info() SessionInfo {
	return SessionInfo{
		ID:         sess.ID,
		Source:     sess.Source,
		Applicants: sess.ins.NumApplicants,
		Posts:      sess.ins.NumPosts,
		Epoch:      sess.ins.Epoch(),
		Mutations:  sess.mutations,
	}
}

// Mutation is one edit to a session's instance. Op selects the edit;
// the other fields are read per-op:
//
//	set_preferences  Applicant, Posts, and optionally Ranks (omitted = strict)
//	add_applicant    Posts, optionally Ranks
//	remove_applicant Applicant
//	set_capacity     Post, Capacity
type Mutation struct {
	Op        string  `json:"op"`
	Applicant int     `json:"applicant,omitempty"`
	Posts     []int32 `json:"posts,omitempty"`
	Ranks     []int32 `json:"ranks,omitempty"`
	Post      int32   `json:"post,omitempty"`
	Capacity  int32   `json:"capacity,omitempty"`
}

// MutationResult reports one applied mutation. Applicant is the id the op
// acted on: for add_applicant the newly assigned id, for remove_applicant
// the id that was moved into the removed slot (-1 if the last slot was
// removed); other ops echo the target (-1 for set_capacity).
type MutationResult struct {
	Op        string `json:"op"`
	Applicant int    `json:"applicant"`
}

// CreateSession forks a new mutable session off the registered instance id.
// The snapshot itself is untouched (it remains registered and solvable); the
// session starts at the snapshot's exact content with mutation epoch 0.
func (s *Server) CreateSession(instanceID string) (SessionInfo, error) {
	snap, ok := s.registry.Get(instanceID)
	if !ok {
		return SessionInfo{}, ErrUnknownInstance
	}
	var raw [12]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return SessionInfo{}, fmt.Errorf("session id: %w", err)
	}
	ins := snap.Ins.Clone()
	ins.CSR() // prewarm so the first mutation patches rather than builds
	sess := &Session{
		ID:      "s-" + hex.EncodeToString(raw[:]),
		Source:  snap.ID,
		ins:     ins,
		created: time.Now(),
	}
	if err := s.sessions.add(sess); err != nil {
		return SessionInfo{}, err
	}
	return sess.info(), nil
}

// Session returns a point-in-time description of one live session.
func (s *Server) Session(id string) (SessionInfo, bool) {
	sess, ok := s.sessions.get(id)
	if !ok {
		return SessionInfo{}, false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.info(), true
}

// Sessions lists the live sessions in creation order.
func (s *Server) Sessions() []SessionInfo {
	live := s.sessions.list()
	out := make([]SessionInfo, 0, len(live))
	for _, sess := range live {
		sess.mu.Lock()
		out = append(out, sess.info())
		sess.mu.Unlock()
	}
	return out
}

// DeleteSession ends a session and drops its cached re-match results.
func (s *Server) DeleteSession(id string) bool {
	ok := s.sessions.remove(id)
	if ok {
		s.cache.EvictInstance(id)
	}
	return ok
}

// MutateSession applies muts to the session's instance in order, stopping at
// the first invalid mutation. Mutations already applied stay applied — the
// returned SessionInfo always describes the instance as it now stands (its
// Epoch tells a client exactly how far the batch got), and the results slice
// has one entry per applied mutation.
func (s *Server) MutateSession(id string, muts []Mutation) (SessionInfo, []MutationResult, error) {
	sess, ok := s.sessions.get(id)
	if !ok {
		return SessionInfo{}, nil, ErrUnknownSession
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	results := make([]MutationResult, 0, len(muts))
	for i, m := range muts {
		r, err := applyMutation(sess.ins, m)
		if err != nil {
			return sess.info(), results, fmt.Errorf("mutation %d (%s): %w", i, m.Op, err)
		}
		sess.mutations++
		results = append(results, r)
	}
	return sess.info(), results, nil
}

func applyMutation(ins *onesided.Instance, m Mutation) (MutationResult, error) {
	switch m.Op {
	case "set_preferences":
		if err := ins.SetPreferences(m.Applicant, m.Posts, m.Ranks); err != nil {
			return MutationResult{}, err
		}
		return MutationResult{Op: m.Op, Applicant: m.Applicant}, nil
	case "add_applicant":
		a, err := ins.AddApplicant(m.Posts, m.Ranks)
		if err != nil {
			return MutationResult{}, err
		}
		return MutationResult{Op: m.Op, Applicant: a}, nil
	case "remove_applicant":
		moved, err := ins.RemoveApplicant(m.Applicant)
		if err != nil {
			return MutationResult{}, err
		}
		return MutationResult{Op: m.Op, Applicant: moved}, nil
	case "set_capacity":
		if err := ins.SetCapacity(m.Post, m.Capacity); err != nil {
			return MutationResult{}, err
		}
		return MutationResult{Op: m.Op, Applicant: -1}, nil
	default:
		return MutationResult{}, fmt.Errorf("unknown mutation op %q (valid: set_preferences, add_applicant, remove_applicant, set_capacity)", m.Op)
	}
}

// SessionSolveMeta describes how a session solve was served: the mutation
// epoch the answer is valid for, whether it came from the result cache, and
// whether the warm incremental path (rather than a full solve) produced it.
type SessionSolveMeta struct {
	Epoch  uint64
	Cached bool
	Warm   bool
}

// SolveSession re-matches a session's instance at its current mutation
// epoch. The cache holds one line per (session, mode), stamped with the
// epoch it answers: a re-query without intervening mutations is answered
// from it, a re-match after a mutation misses and its result replaces the
// line, so a session's churn never fills the cache with dead epochs. On a
// miss, popmatch.ModePopular rides the warm-started delta solver; other modes
// full-solve the current instance.
func (s *Server) SolveSession(ctx context.Context, id string, mode popmatch.Mode) (*Outcome, SessionSolveMeta, error) {
	return s.solveSession(ctx, id, mode, nil)
}

// SolveSessionTraced is SolveSession with a per-phase trace: the solve fills
// tr (the warm delta path attributes its splice work there). Traced session
// solves bypass the result cache in both directions so the trace always
// reflects a real kernel dispatch of exactly this request.
func (s *Server) SolveSessionTraced(ctx context.Context, id string, mode popmatch.Mode, tr *popmatch.SolveTrace) (*Outcome, SessionSolveMeta, error) {
	return s.solveSession(ctx, id, mode, tr)
}

func (s *Server) solveSession(ctx context.Context, id string, mode popmatch.Mode, tr *popmatch.SolveTrace) (*Outcome, SessionSolveMeta, error) {
	sess, ok := s.sessions.get(id)
	if !ok {
		return nil, SessionSolveMeta{}, ErrUnknownSession
	}
	start := time.Now()
	defer func() { s.metrics.reqSession.Observe(time.Since(start).Nanoseconds()) }()
	s.stats.Requests.Add(1)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	meta := SessionSolveMeta{Epoch: sess.ins.Epoch()}
	key := cacheKey{id: sess.ID, mode: mode, epoch: meta.Epoch}
	if tr == nil {
		if out, hit := s.cache.Get(key); hit {
			s.stats.CacheHits.Add(1)
			meta.Cached = true
			return out, meta, nil
		}
	}
	s.stats.CacheMisses.Add(1)
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	s.stats.SessionSolves.Add(1)
	s.metrics.modeSolve(mode, 1)
	t0 := time.Now()
	var res popmatch.Result
	var err error
	if mode == popmatch.ModePopular {
		// The delta path recycles sess.res's buffers and the session's warm
		// state; for any instance shape it cannot serve incrementally it
		// falls back to a full solve internally.
		err = s.solver.SolveDeltaInto(ctx, sess.ins, popmatch.Request{Mode: mode, Trace: tr}, &sess.delta, &sess.res)
		res = sess.res
		if err == nil && sess.delta.Stats().Warm {
			meta.Warm = true
			s.stats.SessionWarm.Add(1)
		}
	} else {
		res, err = s.solver.SolveRequest(ctx, sess.ins, popmatch.Request{Mode: mode, Trace: tr})
	}
	s.metrics.solve.Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		s.stats.SolveErrors.Add(1)
		return nil, SessionSolveMeta{}, err
	}
	out := outcomeOf(sess.ins.NumPosts, res)
	if tr == nil {
		s.cache.Put(key, out)
		// Same resurrection guard as Server.Solve: DeleteSession removes the
		// table entry before purging the cache, so re-checking liveness after
		// the Put guarantees a deleted session leaves no cache line behind.
		if _, live := s.sessions.get(sess.ID); !live {
			s.cache.EvictInstance(sess.ID)
		}
	}
	return out, meta, nil
}
