package deque

import "nabbitc/internal/colorset"

// Ring is the unlocked growable ring-buffer deque: the owner pushes and
// pops at the bottom, Steal takes from the top. It is the one deque both
// machines run — the engine under Mutex's lock, the single-threaded
// simulator bare — so the two share one statement of the steal rule.
//
// The ring's length is always a power of two, so an index wraps with one
// AND against mask instead of a division per push and per pop. The first
// buffer comes from the caller (see NewRing); when full, the ring doubles
// onto the heap and counts the growth.
type Ring[T any] struct {
	buf   []Entry[T]
	mask  int // len(buf) - 1
	head  int // index of the top (oldest) element
	n     int // number of elements
	grows int64
}

// NewRing returns an empty ring over buf, whose length must be a power of
// two; the caller picks where that first buffer lives.
func NewRing[T any](buf []Entry[T]) Ring[T] {
	if len(buf) == 0 || len(buf)&(len(buf)-1) != 0 {
		panic("deque: ring buffer length must be a power of two")
	}
	return Ring[T]{buf: buf, mask: len(buf) - 1}
}

// grow doubles the buffer. It is kept small enough that bottom, grow
// inlined, still inlines into Mutex's locked section: an out-of-line call
// alone costs the inliner most of its budget.
//
//nabbit:alloc-ok amortized growth path, counted by Grows()
func (r *Ring[T]) grow() {
	// The full ring wraps at most once: move it as two bulk copies, the
	// second landing where the first ended, rather than a per-element
	// modulo loop.
	nb := make([]Entry[T], 2*len(r.buf))
	copy(nb[copy(nb, r.buf[r.head:]):], r.buf[:r.head])
	r.buf, r.mask, r.head = nb, len(nb)-1, 0
	r.grows++
}

// bottom makes room for one more item and returns its slot, the new
// bottom. Pushing through it lets Mutex store its argument straight into
// the ring instead of first copying it into an inlined parameter.
//
//nabbit:noalloc
//nabbit:alloc-ok amortized growth only, counted by Grows()
func (r *Ring[T]) bottom() *Entry[T] {
	if r.n == len(r.buf) {
		r.grow() //nabbit:alloc-ok inlined amortized growth
	}
	i := (r.head + r.n) & r.mask
	r.n++
	return &r.buf[i]
}

// PushBottom adds an item at the bottom (newest end).
//
//nabbit:noalloc
func (r *Ring[T]) PushBottom(e Entry[T]) {
	*r.bottom() = e //nabbit:alloc-ok inlined amortized growth
}

// PopBottom removes the newest item.
//
//nabbit:noalloc
func (r *Ring[T]) PopBottom() (e Entry[T], ok bool) {
	ok = r.pop(&e)
	return e, ok
}

// pop moves the newest item into e, zeroing its slot to release
// references, and reports whether there was one. Mutex pops through it
// straight into its own result.
func (r *Ring[T]) pop(e *Entry[T]) bool {
	if r.n == 0 {
		return false
	}
	r.n--
	slot := &r.buf[(r.head+r.n)&r.mask]
	*e = *slot
	*slot = Entry[T]{}
	return true
}

// Steal takes min(ceil(n/2), max) of the oldest items, appending them to
// into oldest first, if filter admits the oldest (see Queue.Steal).
//
//nabbit:noalloc
func (r *Ring[T]) Steal(filter *colorset.Set, max int, into []Entry[T]) ([]Entry[T], StealOutcome) {
	if r.n == 0 {
		return into, StealEmpty
	}
	if filter != nil && !r.buf[r.head].Colors.Intersects(*filter) {
		return into, StealMiss
	}
	for k := batchSize(r.n, max); k > 0; k-- {
		into = append(into, r.buf[r.head]) //nabbit:alloc-ok grows only a caller's undersized scratch
		r.buf[r.head] = Entry[T]{}
		r.head = (r.head + 1) & r.mask
		r.n--
	}
	return into, StealOK
}

// Len returns the number of items.
func (r *Ring[T]) Len() int { return r.n }
