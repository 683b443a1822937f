package serve

import (
	"errors"
	"sync"

	"repro/internal/onesided"
)

// ErrUnknownInstance is returned when a request names an instance id the
// registry does not hold.
var ErrUnknownInstance = errors.New("unknown instance")

// ErrRegistryFull is returned by Add when the registry holds its configured
// maximum of distinct instances.
var ErrRegistryFull = errors.New("instance registry is full")

// Snapshot is one registered instance: an immutable, solver-ready snapshot.
// Its ID is the instance's content fingerprint, its CSR form is prebuilt at
// registration, and by the Instance immutability contract nothing may mutate
// it afterwards — every concurrent solve of this snapshot indexes the same
// flat arrays.
type Snapshot struct {
	ID          string
	Ins         *onesided.Instance
	Applicants  int
	Posts       int
	Edges       int
	Strict      bool
	Capacitated bool
}

// Registry is the fingerprint-keyed instance store. Registration is
// idempotent: adding content already present returns the existing snapshot,
// so clients may re-upload freely (and identical uploads from different
// clients share one snapshot, one CSR and one set of cache lines).
type Registry struct {
	mu    sync.RWMutex
	max   int
	m     map[string]*Snapshot
	order []string // insertion order, for a stable List
}

// NewRegistry returns a registry holding at most max distinct instances.
func NewRegistry(max int) *Registry {
	return &Registry{max: max, m: make(map[string]*Snapshot)}
}

// Add validates ins, derives its fingerprint and CSR, and registers it.
// The returned bool reports whether a new snapshot was created (false: the
// content was already registered). The caller transfers ownership of ins —
// it must not be mutated after Add.
func (r *Registry) Add(ins *onesided.Instance) (*Snapshot, bool, error) {
	if err := ins.Validate(); err != nil {
		return nil, false, err
	}
	csr := ins.CSR() // prebuild so concurrent solves share the flat form
	id := ins.Fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	if snap, ok := r.m[id]; ok {
		return snap, false, nil
	}
	if r.max > 0 && len(r.m) >= r.max {
		return nil, false, ErrRegistryFull
	}
	snap := &Snapshot{
		ID:          id,
		Ins:         ins,
		Applicants:  ins.NumApplicants,
		Posts:       ins.NumPosts,
		Edges:       csr.NumEdges(),
		Strict:      csr.Strict(),
		Capacitated: !ins.UnitCapacity(),
	}
	r.m[id] = snap
	r.order = append(r.order, id)
	return snap, true, nil
}

// Get returns the snapshot registered under id.
func (r *Registry) Get(id string) (*Snapshot, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap, ok := r.m[id]
	return snap, ok
}

// Evict removes id, reporting whether it was present.
func (r *Registry) Evict(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[id]; !ok {
		return false
	}
	delete(r.m, id)
	for i, v := range r.order {
		if v == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// List returns the registered snapshots in insertion order.
func (r *Registry) List() []*Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Snapshot, 0, len(r.m))
	for _, id := range r.order {
		out = append(out, r.m[id])
	}
	return out
}

// Len reports the number of registered instances.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}
