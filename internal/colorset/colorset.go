// Package colorset implements fixed-capacity bitmask sets of colors.
//
// In NabbitC a color identifies the worker (and transitively the NUMA
// location) whose memory holds the data a task needs. The Cilk Plus
// runtime extension in the paper maintains a "color deque" alongside the
// work deque: each stealable continuation carries a constant-size array of
// boolean flags recording which colors occur inside it, so that a thief
// can decide in O(1) whether a frame is worth a colored steal. A Set is
// that array, packed 64 colors per word.
//
// Like the paper's constant-size flag arrays, small sets live entirely
// inside the Set value: capacities up to InlineColors (128 — two words,
// covering the paper's 80-worker machine) are stored in a fixed inline
// array, so New, Add, and the steal-path predicates never touch the heap.
// Only capacities beyond InlineColors spill to a heap-allocated word
// slice.
//
// Sets are value types with capacity fixed at creation; operations on sets
// of differing capacity panic, since that always indicates a scheduler
// configured inconsistently. Because small sets are stored by value,
// assigning a Set copies it: mutating the copy does not affect the
// original (spilled sets share their backing slice, so treat assignment
// as transfer-of-ownership).
package colorset

import (
	"fmt"
	"math/bits"
	"strings"
	"unsafe"
)

const wordBits = 64

// InlineColors is the largest capacity stored inline in the Set value
// (no heap allocation). It covers two 64-color words — enough for the
// paper's 80-worker machine with room to spare.
const InlineColors = 2 * wordBits

// Set is a bitmask over colors [0, Cap). The zero value is an empty set of
// capacity 0; use New to create a set able to hold colors.
//
// Add, the one mutating method, uses a pointer receiver so it works on
// the inline representation; predicates take the set by value.
//
// A Set is 32 bytes — half a cache line — because one rides in every deque
// entry the scheduler pushes and pops: the spill storage is a bare pointer
// to its first word (the word count follows from n), not an inline slice
// header that only sets beyond InlineColors would ever use.
type Set struct {
	lo, hi uint64  // inline words 0 and 1, authoritative when ext == nil
	ext    *uint64 // first of wordsFor(n) spilled words, non-nil iff n > InlineColors
	n      int     // capacity in colors
}

// words returns the spilled word slice; callers have checked ext != nil.
func (s Set) words() []uint64 { return unsafe.Slice(s.ext, wordsFor(s.n)) }

// wordsFor returns the number of 64-bit words covering n colors.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// New returns an empty set with capacity for colors in [0, n). Capacities
// up to InlineColors allocate nothing.
func New(n int) Set {
	if n < 0 {
		panic("colorset: negative capacity")
	}
	if n <= InlineColors {
		return Set{n: n}
	}
	words := make([]uint64, wordsFor(n)) //nabbit:alloc-ok spill storage, only beyond InlineColors
	return Set{ext: &words[0], n: n}
}

// Of returns a set with capacity n containing the given colors.
func Of(n int, colors ...int) Set {
	s := New(n)
	for _, c := range colors {
		s.Add(c)
	}
	return s
}

// Cap returns the capacity (number of representable colors).
func (s Set) Cap() int { return s.n }

// InlineWords returns the two inline bit words and true when the set is
// stored inline (capacity <= InlineColors). Spilled sets return false; use
// the general predicates for those. The lock-free deque uses this to keep
// an atomically readable shadow of an entry's color mask.
func (s Set) InlineWords() (lo, hi uint64, ok bool) {
	if s.ext != nil {
		return 0, 0, false
	}
	return s.lo, s.hi, true
}

// check panics if c is outside [0, s.n).
func (s Set) check(c int) {
	if c < 0 || c >= s.n {
		//nabbit:alloc-ok panic-only formatting
		panic(fmt.Sprintf("colorset: color %d out of range [0,%d)", c, s.n))
	}
}

// Add inserts color c.
func (s *Set) Add(c int) {
	s.check(c) //nabbit:alloc-ok check's panic-only formatting, attributed here when inlined
	if s.ext == nil {
		if c < wordBits {
			s.lo |= 1 << uint(c)
		} else {
			s.hi |= 1 << uint(c-wordBits)
		}
		return
	}
	s.words()[c/wordBits] |= 1 << (uint(c) % wordBits)
}

// Has reports whether color c is present. Colors outside the capacity are
// reported absent rather than panicking: a thief may legitimately probe
// with its own color against a set built for a smaller run.
func (s Set) Has(c int) bool {
	if c < 0 {
		return false
	}
	if s.ext == nil {
		if c < wordBits {
			return s.lo&(1<<uint(c)) != 0
		}
		if c < InlineColors {
			return s.hi&(1<<uint(c-wordBits)) != 0
		}
		return false
	}
	ext := s.words()
	if c/wordBits >= len(ext) {
		return false
	}
	return ext[c/wordBits]&(1<<(uint(c)%wordBits)) != 0
}

// Empty reports whether the set has no colors.
func (s Set) Empty() bool {
	if s.ext == nil {
		return s.lo|s.hi == 0
	}
	for _, w := range s.words() {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of colors present.
func (s Set) Len() int {
	if s.ext == nil {
		return bits.OnesCount64(s.lo) + bits.OnesCount64(s.hi)
	}
	total := 0
	for _, w := range s.words() {
		total += bits.OnesCount64(w)
	}
	return total
}

func (s Set) sameCap(o Set) {
	if s.n != o.n {
		//nabbit:alloc-ok panic-only formatting
		panic(fmt.Sprintf("colorset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// Intersects reports whether s and o share at least one color.
func (s Set) Intersects(o Set) bool {
	s.sameCap(o) //nabbit:alloc-ok sameCap's panic-only formatting, attributed here when inlined
	if s.ext == nil {
		return s.lo&o.lo|s.hi&o.hi != 0
	}
	sw := s.words()
	for i, w := range o.words() {
		if sw[i]&w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain exactly the same colors.
func (s Set) Equal(o Set) bool {
	if s.n != o.n {
		return false
	}
	if s.ext == nil {
		return s.lo == o.lo && s.hi == o.hi
	}
	sw := s.words()
	for i, w := range o.words() {
		if sw[i] != w {
			return false
		}
	}
	return true
}

// word returns the i-th 64-color word.
func (s Set) word(i int) uint64 {
	if s.ext != nil {
		return s.words()[i]
	}
	if i == 0 {
		return s.lo
	}
	return s.hi
}

// numWords returns how many words the capacity spans.
func (s Set) numWords() int { return wordsFor(s.n) }

// Colors returns the present colors in ascending order.
func (s Set) Colors() []int {
	out := make([]int, 0, s.Len())
	for i, nw := 0, s.numWords(); i < nw; i++ {
		w := s.word(i)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// ForEach calls fn for each present color in ascending order, stopping
// early if fn returns false.
func (s Set) ForEach(fn func(c int) bool) {
	for i, nw := 0, s.numWords(); i < nw; i++ {
		w := s.word(i)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as "{c1,c2,...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(c int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", c)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
