package deque

import (
	"sync"

	"nabbitc/internal/colorset"
)

// Mutex is a Ring behind a lock, and the deque the engine runs on: the
// owner's push/pop and a thief's steal each take the lock briefly, and
// per-deque contention in work stealing is low by design.
//
// The header is padded on both sides (see cacheLine): every field below
// is written under the lock on each operation.
type Mutex[T any] struct {
	_  [cacheLine]byte
	mu sync.Mutex
	r  Ring[T]
	_  [cacheLine]byte
}

// NewMutex returns an empty deque with the given initial capacity hint
// (rounded up to a power of two).
func NewMutex[T any](capacity int) *Mutex[T] {
	size := 4
	for size < capacity {
		size *= 2
	}
	return &Mutex[T]{r: NewRing(make([]Entry[T], size))}
}

// PushBottom adds an item at the bottom (newest end).
//
//nabbit:noalloc
func (d *Mutex[T]) PushBottom(e Entry[T]) {
	d.mu.Lock()
	//nabbit:alloc-ok inlined amortized growth
	*d.r.bottom() = e //nabbit:lockheld-ok the ring is what d.mu guards
	d.mu.Unlock()
}

// PopBottom removes the newest item.
//
//nabbit:noalloc
func (d *Mutex[T]) PopBottom() (e Entry[T], ok bool) {
	d.mu.Lock()
	ok = d.r.pop(&e) //nabbit:lockheld-ok the ring is what d.mu guards
	d.mu.Unlock()
	return e, ok
}

// StealTop removes the oldest item.
//
//nabbit:noalloc
func (d *Mutex[T]) StealTop() (Entry[T], StealOutcome) {
	var one [1]Entry[T]
	ents, out := d.Steal(nil, 1, one[:0])
	if out != StealOK {
		return Entry[T]{}, out
	}
	return ents[0], out
}

// Steal takes min(ceil(n/2), max) of the oldest items under one lock
// acquisition — a true atomic batch — if filter admits the oldest.
//
//nabbit:noalloc
func (d *Mutex[T]) Steal(filter *colorset.Set, max int, into []Entry[T]) ([]Entry[T], StealOutcome) {
	d.mu.Lock()
	into, out := d.r.Steal(filter, max, into) //nabbit:lockheld-ok the ring is what d.mu guards
	d.mu.Unlock()
	return into, out
}

// Len returns the number of items.
func (d *Mutex[T]) Len() int {
	d.mu.Lock()
	n := d.r.n
	d.mu.Unlock()
	return n
}

// Grows returns how many times the ring buffer has grown since
// construction — the growth-churn signal the engine sizes initial
// capacities to eliminate.
func (d *Mutex[T]) Grows() int64 {
	d.mu.Lock()
	g := d.r.grows
	d.mu.Unlock()
	return g
}
