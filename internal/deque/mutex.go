package deque

import (
	"sync"

	"nabbitc/internal/colorset"
)

// Mutex is a lock-protected growable ring-buffer deque, and the one the
// engine runs on: the owner's push/pop and a thief's steal each take the
// lock briefly, and per-deque contention in work stealing is low by design.
//
// The ring's length is always a power of two, so an index wraps with one
// AND against mask instead of a division per push and per pop. The header
// is padded on both sides (see cacheLine): every field below is written
// under the lock on each operation.
type Mutex[T any] struct {
	_     [cacheLine]byte
	mu    sync.Mutex
	buf   []Entry[T]
	mask  int // len(buf) - 1
	head  int // index of the top (oldest) element
	n     int // number of elements
	grows int64
	_     [cacheLine]byte
}

// NewMutex returns an empty deque with the given initial capacity hint
// (rounded up to a power of two).
func NewMutex[T any](capacity int) *Mutex[T] {
	size := 4
	for size < capacity {
		size *= 2
	}
	return &Mutex[T]{buf: make([]Entry[T], size), mask: size - 1}
}

//nabbit:alloc-ok amortized growth path, counted by Grows()
func (d *Mutex[T]) grow() {
	// The full ring wraps at most once: move it as two bulk copies rather
	// than a per-element modulo loop.
	nb := make([]Entry[T], len(d.buf)*2)
	n := copy(nb, d.buf[d.head:])
	copy(nb[n:], d.buf[:d.head])
	d.buf = nb
	d.mask = len(nb) - 1
	d.head = 0
	d.grows++
}

// PushBottom adds an item at the bottom (newest end).
//
//nabbit:noalloc
func (d *Mutex[T]) PushBottom(e Entry[T]) {
	d.mu.Lock()
	if d.n == len(d.buf) {
		d.grow() //nabbit:alloc-ok inlined amortized growth
	}
	d.buf[(d.head+d.n)&d.mask] = e
	d.n++
	d.mu.Unlock()
}

// PopBottom removes the newest item.
//
//nabbit:noalloc
func (d *Mutex[T]) PopBottom() (Entry[T], bool) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		var zero Entry[T]
		return zero, false
	}
	d.n--
	i := (d.head + d.n) & d.mask
	e := d.buf[i]
	d.buf[i] = Entry[T]{} // release references
	d.mu.Unlock()
	return e, true
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
	if d.n == 0 {
		d.mu.Unlock()
		return into, StealEmpty
	}
	if filter != nil && !d.buf[d.head].Colors.Intersects(*filter) {
		d.mu.Unlock()
		return into, StealMiss
	}
	for k := batchSize(d.n, max); k > 0; k-- {
		into = append(into, d.buf[d.head]) //nabbit:alloc-ok grows only a caller's undersized scratch
		d.buf[d.head] = Entry[T]{}
		d.head = (d.head + 1) & d.mask
		d.n--
	}
	d.mu.Unlock()
	return into, StealOK
}

// Len returns the number of items.
func (d *Mutex[T]) Len() int {
	d.mu.Lock()
	n := d.n
	d.mu.Unlock()
	return n
}

// Grows returns how many times the ring buffer has grown since
// construction — the growth-churn signal the engine sizes initial
// capacities to eliminate.
func (d *Mutex[T]) Grows() int64 {
	d.mu.Lock()
	g := d.grows
	d.mu.Unlock()
	return g
}
