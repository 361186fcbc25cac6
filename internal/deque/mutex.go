package deque

import (
	"sync"
	"sync/atomic"

	"nabbitc/internal/colorset"
)

// Mutex is a Ring behind a lock, and the deque the engine runs on: the
// owner's push/pop and a thief's steal each take the lock briefly, and
// per-deque contention in work stealing is low by design.
//
// The header is padded on both sides (see cacheLine): every field below
// is written under the lock on each operation.
//
// The owner can also read the length without the lock (OwnerLen): it
// counts its own pushes less its own pops in owned, a plain word only it
// writes, and the thieves count what they take in stolen. Push and pop
// stay one locked operation each; only a steal pays a second. Anyone may
// ask whether the deque holds anything without the lock (NonEmpty): a
// flag stored under the lock only when an operation takes the deque from
// empty to not, or back, so it costs a push or pop that keeps the deque
// non-empty nothing.
type Mutex[T any] struct {
	_        [cacheLine]byte
	mu       sync.Mutex
	r        Ring[T]
	owned    int64        // items pushed less items popped; written by the owner under mu
	stolen   atomic.Int64 // items stolen; written by thieves under mu
	nonEmpty atomic.Bool  // r.n > 0 as of the last unlock; stored under mu on a transition
	_        [cacheLine]byte
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
	if d.r.n == 0 {
		d.nonEmpty.Store(true)
	}
	//nabbit:alloc-ok inlined amortized growth
	*d.r.bottom() = e //nabbit:lockheld-ok the ring is what d.mu guards
	d.owned++
	d.mu.Unlock()
}

// PushBeneath adds an item beneath the k newest items, k clamped to
// [0, Len()]: k = 0 is PushBottom, and k >= Len() puts the item at the top,
// next in line for a thief.
//
//nabbit:noalloc
func (d *Mutex[T]) PushBeneath(e Entry[T], k int) {
	d.mu.Lock()
	if d.r.n == 0 {
		d.nonEmpty.Store(true)
	}
	//nabbit:alloc-ok inlined amortized growth
	*d.r.beneath(k) = e //nabbit:lockheld-ok the ring is what d.mu guards
	d.owned++
	d.mu.Unlock()
}

// PopBottom removes the newest item.
//
//nabbit:noalloc
func (d *Mutex[T]) PopBottom() (e Entry[T], ok bool) {
	d.mu.Lock()
	ok = d.r.pop(&e) //nabbit:lockheld-ok the ring is what d.mu guards
	if ok {
		d.owned--
		if d.r.n == 0 {
			d.nonEmpty.Store(false)
		}
	}
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
	n := d.r.n
	into, out := d.r.Steal(filter, max, into) //nabbit:lockheld-ok the ring is what d.mu guards
	if out == StealOK {
		d.stolen.Add(int64(n - d.r.n))
		if d.r.n == 0 {
			d.nonEmpty.Store(false)
		}
	}
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

// NonEmpty reports whether the deque held an item when its lock was last
// released, without taking the lock. The flag is stored before the unlock
// of the operation that changed it, so a caller that pushes and then reads
// another goroutine's announcement, against one that announces and then
// reads this, always has one of the two see the other.
func (d *Mutex[T]) NonEmpty() bool {
	return d.nonEmpty.Load()
}

// OwnerLen returns the number of items as the owner sees it, without the
// lock: exact but for steals still in progress, so it may only be too
// high, and only for a moment. Only the owner may call it.
func (d *Mutex[T]) OwnerLen() int {
	return int(d.owned - d.stolen.Load())
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
