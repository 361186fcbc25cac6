package deque

import (
	"runtime"
	"sync/atomic"

	"nabbitc/internal/colorset"
)

// ChaseLev is the dynamic circular work-stealing deque of Chase and Lev
// (SPAA'05), adapted to Go's memory model with unboxed value slots:
// entries are stored by value, so pushes allocate nothing in steady state
// (the original design's "pushes never allocate" property, which a boxed
// *Entry slot scheme loses to one heap allocation per push).
//
// # Slot protocol
//
// The index protocol (top/bottom, the owner's last-element CAS, the
// thief's claim CAS) is the classic Chase–Lev algorithm, unchanged. What
// the unboxed representation adds is a discipline for when slot memory may
// be read and rewritten (see doc.go for the full design note):
//
//   - Publication: the owner writes the value, then bumps bottom
//     (release). A thief that observed bottom > t (acquire, read after
//     top) therefore sees the completed value for the incarnation it will
//     claim; the old boxed scheme needed a nil-check on the slot pointer
//     for "owner mid-push", which the bottom bump now subsumes.
//   - Claim: a thief may read the value only after winning the CAS on top
//     (top is monotonic, so a successful claim of index t proves the slot
//     still serves t and no other consumer touched it).
//   - Recycling: the owner overwrites a slot only when pushing index b
//     with b - top < size, which proves the slot's previous tenant
//     (index b-size) was already claimed. The claimant may still be
//     copying the value out, so each slot carries an atomic reader count:
//     a thief holds it across recheck-claim-copy, and the owner's push
//     spins until it drops to zero. The hold is a handful of
//     instructions, so the spin is short and bounded.
//
// Every value access is therefore ordered by a bottom, top, or
// reader-count edge — the protocol is race-free under the Go memory
// model, not merely "benign".
//
// # Colored steals without claiming
//
// A colored thief must inspect the top entry's color mask *before*
// committing, but the value itself is only safely readable after the
// claim. Each slot therefore carries an atomically readable shadow of the
// entry's color mask: two uint64 words (capacity <= colorset.InlineColors,
// i.e. 128 colors — every run at the paper's 80-worker scale) or, beyond
// that, a pointer to an immutable boxed copy. The shadow may be stale —
// the slot can be recycled between the emptiness check and the mask read —
// but staleness is harmless: a false "hit" is filtered by the claim CAS
// (recycling requires top to have moved, which makes the CAS fail), and a
// false "miss" re-validates top exactly as the boxed implementation did,
// reporting StealAbort when the verdict might be stale. Misses stay
// read-only: they never touch the reader count.
type ChaseLev[T any] struct {
	_      [cacheLine]byte
	top    atomic.Int64
	bottom atomic.Int64
	buf    atomic.Pointer[clBuffer[T]]
	// stealCASes counts thief-side claim CAS attempts (the contended
	// instruction batched steals exist to amortize); see StealCASes.
	stealCASes atomic.Int64
	_          [cacheLine]byte
}

// clSlot is one buffer cell. readers counts thieves between claim recheck
// and copy-out. The embedded colorShadow mirrors the entry's color mask
// in atomically readable words (see shadow.go) so colored gates can run
// before the claim CAS.
type clSlot[T any] struct {
	readers atomic.Int32
	shadow  colorShadow
	val     Entry[T]
}

type clBuffer[T any] struct {
	mask  int64
	slots []clSlot[T]
}

func newCLBuffer[T any](logSize uint) *clBuffer[T] {
	n := int64(1) << logSize
	return &clBuffer[T]{mask: n - 1, slots: make([]clSlot[T], n)}
}

func (b *clBuffer[T]) slot(i int64) *clSlot[T] { return &b.slots[i&b.mask] }
func (b *clBuffer[T]) size() int64             { return b.mask + 1 }

// NewChaseLev returns an empty lock-free deque.
func NewChaseLev[T any](capacityHint int) *ChaseLev[T] {
	logSize := uint(5)
	for (int64(1) << logSize) < int64(capacityHint) {
		logSize++
	}
	d := &ChaseLev[T]{}
	d.buf.Store(newCLBuffer[T](logSize))
	return d
}

// PushBottom adds an item at the bottom (owner only). Steady-state pushes
// (no grow) allocate nothing for color sets up to colorset.InlineColors.
//
//nabbit:noalloc
func (d *ChaseLev[T]) PushBottom(e Entry[T]) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t >= buf.size() {
		buf = d.grow(buf, t, b)
	}
	s := buf.slot(b)
	// b - top < size proves the slot's previous tenant was claimed; wait
	// for any claimant still copying it out before overwriting.
	for s.readers.Load() != 0 {
		runtime.Gosched()
	}
	s.val = e
	s.shadow.set(e.Colors)
	d.bottom.Store(b + 1)
}

// grow copies the live window [t, b) into a buffer twice the size and
// publishes it. Grows are amortized and absent in steady state. Thieves
// still holding the old buffer are unaffected: values are never moved out
// of a buffer (only copied), reader counts are per-buffer memory the
// owner's future pushes to the new buffer never contend with, and any
// claim is still serialized through the shared top counter.
//
//nabbit:alloc-ok amortized growth path
func (d *ChaseLev[T]) grow(buf *clBuffer[T], t, b int64) *clBuffer[T] {
	nb := newCLBuffer[T](log2(buf.size()) + 1)
	for i := t; i < b; i++ {
		os := buf.slot(i)
		ns := nb.slot(i)
		ns.val = os.val
		ns.shadow.copyFrom(&os.shadow)
	}
	d.buf.Store(nb)
	return nb
}

func log2(n int64) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// PopBottom removes the newest item (owner only).
//
//nabbit:noalloc
func (d *ChaseLev[T]) PopBottom() (Entry[T], bool) {
	var zero Entry[T]
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if b < t {
		// Deque was empty; restore.
		d.bottom.Store(t)
		return zero, false
	}
	s := buf.slot(b)
	if b > t {
		// Not the last element: top cannot reach b without this owner
		// observing it above, so no thief can claim the slot — it is
		// exclusively ours to read and clear.
		e := s.val
		s.val = zero
		return e, true
	}
	// Last element: race with thieves via CAS on top.
	ok := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !ok {
		return zero, false
	}
	e := s.val
	s.val = zero
	return e, true
}

// claim performs the claim-and-copy half of a steal of index t from s:
// take a reader hold, re-validate that the slot still serves index t,
// win the CAS on top, and only then copy the value out. Returns StealAbort
// on any lost race.
func (d *ChaseLev[T]) claim(s *clSlot[T], t int64) (Entry[T], StealOutcome) {
	var zero Entry[T]
	s.readers.Add(1)
	// Recheck under the hold: if top moved, the slot may be recycled (or
	// mid-rewrite) and the hold is on a stale tenant.
	if d.top.Load() != t {
		s.readers.Add(-1)
		return zero, StealAbort
	}
	d.stealCASes.Add(1)
	if !d.top.CompareAndSwap(t, t+1) {
		s.readers.Add(-1)
		return zero, StealAbort
	}
	e := s.val
	s.readers.Add(-1)
	return e, StealOK
}

// StealTop removes the oldest item (any worker).
//
//nabbit:noalloc
func (d *ChaseLev[T]) StealTop() (Entry[T], StealOutcome) {
	t := d.top.Load()
	b := d.bottom.Load()
	if b <= t {
		var zero Entry[T]
		return zero, StealEmpty
	}
	buf := d.buf.Load()
	return d.claim(buf.slot(t), t)
}

// Steal takes the oldest item if filter admits it and then, up to
// min(ceil(n/2), max) in all, the items behind it during the same visit.
//
// Unlike the mutex deque a batch is NOT one atomic multi-item pop, and it
// cannot soundly be one: a batch CAS of top from t to t+k (after reading
// slots t..t+k-1) would race with the owner's PopBottom, which
// synchronizes with thieves through top only when it takes the LAST
// element (bottom-1 == top). While the thief holds its candidate range the
// owner may pop elements inside (t, t+k) from the bottom without ever
// touching top, so the thief's CAS would retroactively claim items the
// owner already executed — duplicated work. Instead the batch is taken as
// up to k independent single-element CASes, each individually
// linearizable; the batch still amortizes the thief's victim scan and
// remote cache-miss latency over one visit, which is what the cross-socket
// protocol needs. A lost race or emptied deque mid-batch simply ends the
// batch early.
//
// The filter reads the slot's color shadow before the claim. If the
// verdict is a miss, top is re-validated: a slot that no longer serves
// the top index makes the miss stale, reported as StealAbort.
//
//nabbit:noalloc
func (d *ChaseLev[T]) Steal(filter *colorset.Set, max int, into []Entry[T]) ([]Entry[T], StealOutcome) {
	t := d.top.Load()
	b := d.bottom.Load()
	if b <= t {
		return into, StealEmpty
	}
	s := d.buf.Load().slot(t)
	if filter != nil && !s.shadow.intersects(*filter) {
		if d.top.Load() != t {
			return into, StealAbort
		}
		return into, StealMiss
	}
	e, out := d.claim(s, t)
	if out != StealOK {
		return into, out
	}
	into = append(into, e) //nabbit:alloc-ok grows only a caller's undersized scratch
	for k := batchSize(int(b-t), max) - 1; k > 0; k-- {
		if e, out = d.StealTop(); out != StealOK {
			break
		}
		into = append(into, e) //nabbit:alloc-ok grows only a caller's undersized scratch
	}
	return into, StealOK
}

// StealCASes returns how many thief-side claim CAS attempts the deque has
// absorbed — one per single-item claim, so CAS-per-stolen-item is exactly
// 1 on this substrate (the structural tax the block deque's whole-block
// claims remove). Advisory under concurrency.
func (d *ChaseLev[T]) StealCASes() int64 { return d.stealCASes.Load() }

// Len returns an advisory item count.
func (d *ChaseLev[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
