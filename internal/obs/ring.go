package obs

import (
	"sort"
	"sync/atomic"
)

// Ring is a fixed-capacity buffer of the most recently completed traces.
// Writers claim a slot with one atomic increment and publish the (immutable)
// trace with an atomic pointer store; readers snapshot slots lock-free, so
// the query-history endpoints never contend with query execution.
type Ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

// NewRing creates a ring holding the last n traces (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{slots: make([]atomic.Pointer[Trace], n)}
}

// Add publishes a completed trace, evicting the oldest entry when full.
// The trace must not be mutated after Add.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// Recent returns up to max traces, newest (highest id) first. max <= 0
// returns everything retained.
func (r *Ring) Recent(max int) []*Trace {
	if r == nil {
		return nil
	}
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Get returns the retained trace with the given id, or nil.
func (r *Ring) Get(id uint64) *Trace {
	if r == nil {
		return nil
	}
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil && t.ID == id {
			return t
		}
	}
	return nil
}
