package deque

import (
	"sync/atomic"

	"nabbitc/internal/colorset"
)

// colorShadow is an atomically readable copy of an entry's color mask,
// maintained beside the (plain, claim-guarded) entry value so thieves can
// run colored-steal gates before they are allowed to touch the value
// itself. Two inline uint64 words cover capacities up to
// colorset.InlineColors (128 colors — every run at the paper's 80-worker
// scale); larger sets fall back to a pointer at an immutable boxed copy.
//
// Shadow reads are allowed to be stale: both deque substrates that embed
// one (Chase–Lev slots, block-deque slots) pair every shadow verdict with
// a validation of the index word the claim CAS runs on, so a stale "hit"
// dies on the CAS and a stale "miss" is converted to StealAbort rather
// than a false verdict.
type colorShadow struct {
	lo  atomic.Uint64
	hi  atomic.Uint64
	big atomic.Pointer[colorset.Set]
}

// set installs the shadow for mask c. Sequentially consistent stores are
// the expensive instruction on the push fast path (XCHG on amd64), so the
// high word and the spill pointer are rewritten only when they would
// change — on <=64-color runs each push pays exactly one shadow store.
func (s *colorShadow) set(c colorset.Set) {
	if lo, hi, ok := c.InlineWords(); ok {
		s.lo.Store(lo)
		if hi != 0 || s.hi.Load() != 0 {
			s.hi.Store(hi)
		}
		if s.big.Load() != nil {
			s.big.Store(nil)
		}
	} else {
		big := c //nabbit:alloc-ok boxed spill copy, only for >InlineColors capacities
		s.big.Store(&big)
	}
}

// clear resets the shadow to empty (used when a block is recycled).
func (s *colorShadow) clear() {
	if s.lo.Load() != 0 {
		s.lo.Store(0)
	}
	if s.hi.Load() != 0 {
		s.hi.Store(0)
	}
	if s.big.Load() != nil {
		s.big.Store(nil)
	}
}

// copyFrom copies another shadow's current words (used when the Chase–Lev
// buffer grows and the live window moves to a new buffer).
func (s *colorShadow) copyFrom(o *colorShadow) {
	s.lo.Store(o.lo.Load())
	s.hi.Store(o.hi.Load())
	s.big.Store(o.big.Load())
}

// intersects reports whether the shadow intersects mask. The verdict may
// be stale; see the type comment.
func (s *colorShadow) intersects(mask colorset.Set) bool {
	if big := s.big.Load(); big != nil {
		return big.Intersects(mask)
	}
	lo, hi, ok := mask.InlineWords()
	if !ok {
		// Inline entry vs spilled mask: capacities differ by construction
		// (both sides are sized to the worker count), so they share no
		// colors the inline words could express.
		return false
	}
	return s.lo.Load()&lo|s.hi.Load()&hi != 0
}
