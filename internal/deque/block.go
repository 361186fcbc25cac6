package deque

import (
	"runtime"
	"sync/atomic"

	"nabbitc/internal/colorset"
)

// blockSize is the number of entries per block. 32 keeps a block (values
// plus shadows) within a few cache lines per slot region while making an
// uncapped sealed-block claim amortize its single CAS over up to 32 items.
const blockSize = 32

// BlockSize is the block capacity of the Block deque, exported for the
// simulator's virtual-time mirror of block-granular batched steals.
const BlockSize = blockSize

// Packing of a block's index word (ss): the steal index lives in the low
// 16 bits, the seal flag in bit 16, and the block's incarnation epoch in
// bits 24..63 (bits 17..23 are reserved headroom — bkEpoch masks them
// out, so nothing may ever set them). Everything a claim must validate —
// which incarnation of the block it is stealing from, whether the owner
// holds it unsealed, and how far thieves have advanced — is one word, so
// one CAS both claims items and revalidates all of it.
//
// The directive below is machine-checked by nabbitvet's atomicbits
// analyzer; change the packing and the directive together.
//
//nabbit:bitfield word=ss width=64 layout=steal:0-15,seal:16,epoch:24-63
const (
	bkStealMask = (1 << 16) - 1
	bkSealBit   = 1 << 16
	bkEpochInc  = 1 << 24
)

func bkSteal(w uint64) int64  { return int64(w & bkStealMask) }
func bkSealed(w uint64) bool  { return w&bkSealBit != 0 }
func bkEpoch(w uint64) uint64 { return w &^ uint64(bkEpochInc-1) }

// bkSlot is one entry cell: the plain value plus its atomically readable
// color shadow (shared with the Chase–Lev substrate; see shadow.go).
type bkSlot[T any] struct {
	shadow colorShadow
	val    Entry[T]
}

// bkBlock is one fixed-capacity segment of the deque.
//
// Per-block protocol (the Chase–Lev index dance, shrunk to 32 slots):
// commit is the block's "bottom" — the owner's push count, release-stored
// after the value write, decremented by owner pops — and the steal index
// inside ss is the block's "top". Thieves claim slot(s) by CASing ss; the
// owner pops plainly while commit-1 is strictly above the steal index and
// resolves the last-item race through the same CAS word. Because ss also
// carries the seal flag and the incarnation epoch, a thief's claim CAS
// atomically revalidates that the block was not unsealed, resealed with a
// moved steal index, or recycled since the thief inspected it.
//
// readers counts thieves between their winning CAS and the completion of
// their value copy-out; the owner recycles a block only after bumping the
// epoch (failing all in-flight CASes) and draining readers to zero, so a
// recycle never rewrites memory a claimant is still copying.
//
// sum* summarize the colors of every entry pushed into the block this
// incarnation (owner-only writes, monotone within an incarnation), giving
// colored thieves an O(1) whole-block reject before they touch any slot
// shadow. The summary never shrinks on pops, so a stale "may contain" is
// possible (filtered by the slot shadow and the claim CAS) but a "cannot
// contain" is definitive for the incarnation the thief validated.
type bkBlock[T any] struct {
	ss       atomic.Uint64 // epoch | seal | steal index
	commit   atomic.Int64
	readers  atomic.Int32
	sumLo    atomic.Uint64
	sumHi    atomic.Uint64
	sumSpill atomic.Bool // any entry's colors exceeded InlineColors
	next     atomic.Pointer[bkBlock[T]]
	prev     *bkBlock[T] // owner-only back link for move-back
	slots    [blockSize]bkSlot[T]
}

// addSummary folds an entry's colors into the block summary (owner-only:
// plain read-modify-write with atomic stores is race-free with a single
// writer, and skipping no-op stores keeps the push fast path at one
// summary store for <=64-color runs).
func (b *bkBlock[T]) addSummary(c colorset.Set) {
	lo, hi, ok := c.InlineWords()
	if !ok {
		if !b.sumSpill.Load() {
			b.sumSpill.Store(true)
		}
		return
	}
	if old := b.sumLo.Load(); old|lo != old {
		b.sumLo.Store(old | lo)
	}
	if hi != 0 {
		if old := b.sumHi.Load(); old|hi != old {
			b.sumHi.Store(old | hi)
		}
	}
}

// summaryIntersects reports whether any entry pushed into the block this
// incarnation could share a color with mask. Stale-tolerant; see the type
// comment.
func (b *bkBlock[T]) summaryIntersects(mask colorset.Set) bool {
	if b.sumSpill.Load() {
		return true
	}
	lo, hi, ok := mask.InlineWords()
	if !ok {
		return false // inline summary vs spilled mask: disjoint capacities
	}
	return b.sumLo.Load()&lo|b.sumHi.Load()&hi != 0
}

// Block is a block-structured work-stealing deque (in the style of BWoS
// and other segmented deques): the owner pushes and pops inside a private
// unsealed tail block, while thieves operate on the chain of sealed
// blocks behind it, oldest first — and on a sealed block a batched steal
// claims every remaining item with a single CAS, instead of the
// CAS-per-item tax the Chase–Lev layout makes structural (see
// ChaseLev.Steal for why a multi-item top CAS is unsound there; the
// seal flag is exactly the missing guarantee, because the owner never
// pops from a sealed block).
//
// Ordering caveat: steals are oldest-block-first and oldest-first within
// a block, but a whole-block claim hands a thief up to blockSize items at
// once, and an owner that drains its tail block moves back into the
// newest sealed block and unseals it. Interleaved with concurrent
// thieves, the global victim order can therefore legally differ from the
// per-item order Chase–Lev would produce — schedules remain correct
// (every item consumed exactly once, owner LIFO / thief FIFO preserved
// per block and exactly, in both directions, when no steal races occur),
// but cross-substrate comparisons must check computed-sets and per-
// substrate determinism, not byte-identical schedules.
//
// Invariants shared with the other substrates: steady-state pushes, pops
// and single-item steals allocate nothing (blocks are recycled through an
// owner-private free list sized from the capacity hint; Grows counts
// block-list growth past it), and entries are opaque values.
type Block[T any] struct {
	_ [cacheLine]byte
	// head is the authoritative oldest possibly-live block. Only the
	// owner moves it (when harvesting drained blocks), so it can never
	// point at a recycled block and the chain it starts is always
	// complete.
	head atomic.Pointer[bkBlock[T]]
	// hint is the thieves' scan-start cache: thieves CAS it forward past
	// blocks they observed drained, so a drain does not degenerate into
	// an O(chain) rescan per claim. The hint is best-effort — it may
	// lag, or point at a block that was recycled (and even re-linked
	// nearer the tail) since — so a scan that concludes "empty" from the
	// hint re-verifies from head before believing it.
	hint   atomic.Pointer[bkBlock[T]]
	active *bkBlock[T]   // owner-only: unsealed tail block
	free   []*bkBlock[T] // owner-only recycle stack
	grows  atomic.Int64
	// stealCASes counts thief-side claim CAS attempts; a sealed-block
	// batch claim is one attempt regardless of batch size, which is the
	// whole point — see StealCASes.
	stealCASes atomic.Int64
	_          [cacheLine]byte
}

// NewBlock returns an empty block deque with enough preallocated blocks
// to hold capacityHint entries (plus slack) without growing.
func NewBlock[T any](capacityHint int) *Block[T] {
	nblocks := capacityHint/blockSize + 2
	if nblocks < 3 {
		nblocks = 3
	}
	d := &Block[T]{}
	first := &bkBlock[T]{}
	d.head.Store(first)
	d.hint.Store(first)
	d.active = first
	d.free = make([]*bkBlock[T], 0, nblocks)
	for i := 0; i < nblocks-1; i++ {
		d.free = append(d.free, &bkBlock[T]{})
	}
	return d
}

// Grows returns how many times the block list grew past the preallocated
// free list.
func (d *Block[T]) Grows() int64 { return d.grows.Load() }

// StealCASes returns how many thief-side claim CAS attempts the deque
// has absorbed. A whole-block claim counts once, so CAS-per-stolen-item
// approaches 1/blockSize on sealed blocks. Advisory under concurrency.
func (d *Block[T]) StealCASes() int64 { return d.stealCASes.Load() }

// PushBottom adds an item at the bottom (owner only). Steady-state pushes
// allocate nothing: a full tail block is sealed and a fresh block comes
// from the free list or from recycling drained head blocks.
//
//nabbit:noalloc
func (d *Block[T]) PushBottom(e Entry[T]) {
	blk := d.active
	c := blk.commit.Load()
	if c == blockSize {
		blk = d.advance(blk)
		c = blk.commit.Load() // 0 for a reset block
	}
	sl := &blk.slots[c]
	sl.val = e
	sl.shadow.set(e.Colors)
	blk.addSummary(e.Colors)
	blk.commit.Store(c + 1)
}

// advance seals the full tail block and links a fresh one behind it.
func (d *Block[T]) advance(blk *bkBlock[T]) *bkBlock[T] {
	// Thieves CAS the same word concurrently (advancing the steal
	// index), so sealing retries until it lands.
	for {
		w := blk.ss.Load()
		if blk.ss.CompareAndSwap(w, w|bkSealBit) {
			break
		}
	}
	nb := d.getBlock()
	nb.prev = blk
	d.active = nb
	blk.next.Store(nb)
	return nb
}

// getBlock produces an empty block: free list first, then recycling
// drained blocks at the head of the chain, then allocation (counted by
// Grows — absent in steady state when the capacity hint was honest).
//
//nabbit:alloc-ok fresh blocks only when the free list is empty, counted by Grows()
func (d *Block[T]) getBlock() *bkBlock[T] {
	if n := len(d.free); n > 0 {
		b := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return b
	}
	if b := d.harvestHead(); b != nil {
		return b
	}
	d.grows.Add(1)
	return &bkBlock[T]{}
}

// harvestHead detaches and resets the oldest block if thieves have
// drained it. Only the owner advances head; thieves merely skip empty
// blocks while scanning.
func (d *Block[T]) harvestHead() *bkBlock[T] {
	h := d.head.Load()
	if h == d.active {
		return nil
	}
	w := h.ss.Load()
	if !bkSealed(w) || bkSteal(w) != h.commit.Load() {
		return nil // still live (all non-active chain blocks are sealed)
	}
	nx := h.next.Load()
	if nx == nil {
		return nil
	}
	d.head.Store(nx)
	nx.prev = nil // never walk back into a recycled block
	d.resetBlock(h)
	return h
}

// resetBlock retires a detached, drained block for reuse: zero the commit
// count, bump the epoch (every in-flight claim CAS now fails), drain
// claimants still copying values out, then clear slots so stale Entry
// values (which may pin engine run state) are released. The commit count
// goes first: a thief that reads the new index word (steal index 0) and
// then the old commit count would take the block for live and claim slot
// 0 — an item already consumed, or a cleared slot — and leave the reused
// block's steal index ahead of its first push.
func (d *Block[T]) resetBlock(b *bkBlock[T]) {
	b.commit.Store(0)
	for {
		w := b.ss.Load()
		if b.ss.CompareAndSwap(w, bkEpoch(w)+bkEpochInc) {
			break
		}
	}
	for b.readers.Load() != 0 {
		runtime.Gosched()
	}
	var zero Entry[T]
	for i := range b.slots {
		b.slots[i].val = zero
		b.slots[i].shadow.clear()
	}
	if b.sumLo.Load() != 0 {
		b.sumLo.Store(0)
	}
	if b.sumHi.Load() != 0 {
		b.sumHi.Store(0)
	}
	if b.sumSpill.Load() {
		b.sumSpill.Store(false)
	}
	b.next.Store(nil)
	b.prev = nil
}

// PopBottom removes the newest item (owner only): the Chase–Lev dance on
// the tail block, moving back into the newest sealed block (unsealing
// it) whenever the tail is exhausted.
//
//nabbit:noalloc
func (d *Block[T]) PopBottom() (Entry[T], bool) {
	var zero Entry[T]
	for {
		blk := d.active
		b := blk.commit.Load() - 1
		blk.commit.Store(b)
		w := blk.ss.Load()
		t := bkSteal(w)
		if b > t {
			// Not the last element: the steal index cannot reach b
			// without this owner observing it above (both words are
			// sequentially consistent), so the slot is exclusively ours.
			sl := &blk.slots[b]
			e := sl.val
			sl.val = zero
			return e, true
		}
		if b == t {
			// Last element: race thieves through the index word. The CAS
			// also revalidates the epoch and seal for free.
			ok := blk.ss.CompareAndSwap(w, w+1)
			blk.commit.Store(t + 1)
			if ok {
				sl := &blk.slots[b]
				e := sl.val
				sl.val = zero
				return e, true
			}
			continue // a thief won the last item; block now exhausted
		}
		// b < t: block exhausted; restore and move back a block.
		blk.commit.Store(t)
		p := blk.prev
		if p == nil {
			return zero, false
		}
		// Detach the exhausted tail, recycle it, and unseal its
		// predecessor as the new tail. Unsealing changes the index word,
		// so any thief's in-flight whole-block claim on p dies on its
		// CAS; single-item claims race on normally.
		p.next.Store(nil)
		d.resetBlock(blk)
		d.free = append(d.free, blk)
		for {
			pw := p.ss.Load()
			if p.ss.CompareAndSwap(pw, pw&^uint64(bkSealBit)) {
				break
			}
		}
		d.active = p
	}
}

// claimOne claims the item at the steal index of w from blk. The CAS on
// the full index word validates epoch, seal state, and steal position at
// once; the reader hold keeps the owner from recycling the block under
// the copy-out.
func (d *Block[T]) claimOne(blk *bkBlock[T], w uint64) (Entry[T], StealOutcome) {
	var zero Entry[T]
	blk.readers.Add(1)
	d.stealCASes.Add(1)
	if !blk.ss.CompareAndSwap(w, w+1) {
		blk.readers.Add(-1)
		return zero, StealAbort
	}
	e := blk.slots[bkSteal(w)].val
	blk.readers.Add(-1)
	return e, StealOK
}

// claimBatch claims k items starting at the steal index of w from sealed
// blk with a single CAS and appends them to into.
func (d *Block[T]) claimBatch(blk *bkBlock[T], w uint64, k int, into []Entry[T]) ([]Entry[T], StealOutcome) {
	s := bkSteal(w)
	blk.readers.Add(1)
	d.stealCASes.Add(1)
	if !blk.ss.CompareAndSwap(w, w+uint64(k)) {
		blk.readers.Add(-1)
		return into, StealAbort
	}
	for i := range k {
		into = append(into, blk.slots[s+int64(i)].val) //nabbit:alloc-ok grows only a caller's undersized scratch
	}
	blk.readers.Add(-1)
	return into, StealOK
}

// scanFrom walks the chain from start and returns the first block holding
// items, with the index word and commit count the verdict was computed
// from (w read before commit, which the claim-safety argument requires).
func (d *Block[T]) scanFrom(start *bkBlock[T]) (*bkBlock[T], uint64, int64) {
	for blk := start; blk != nil; blk = blk.next.Load() {
		w := blk.ss.Load()
		c := blk.commit.Load()
		if c > bkSteal(w) {
			return blk, w, c
		}
	}
	return nil, 0, 0
}

// firstLive returns the oldest block holding items, or nil if the deque
// was observed empty.
//
// Thieves scan from the hint, not from head: head only moves when the
// owner harvests (which requires an owner push), so with a quiet owner a
// pure thief drain would otherwise rescan every drained block on every
// claim — O(chain) per steal. The hint is advanced by the thieves
// themselves, and because it is only a cache it needs none of the
// owner's reclamation coordination: if it has gone stale (its block was
// recycled — scan sees an empty, unchained block) the scan concludes
// "empty", and that verdict is never trusted until a rescan from the
// authoritative head confirms it. A stale hint that was re-linked nearer
// the tail can transiently make thieves favor newer blocks over sealed
// middle ones — a fairness quirk within the documented victim-order
// caveat, repaired by the next empty-scan fallback.
func (d *Block[T]) firstLive() (*bkBlock[T], uint64, int64) {
	start := d.hint.Load()
	blk, w, c := d.scanFrom(start)
	if blk == nil {
		h := d.head.Load()
		if h == start {
			return nil, 0, 0
		}
		d.hint.CompareAndSwap(start, h)
		if blk, w, c = d.scanFrom(h); blk == nil {
			return nil, 0, 0
		}
	}
	if blk != start {
		d.hint.CompareAndSwap(start, blk)
	}
	return blk, w, c
}

// StealTop removes the oldest item (any worker).
//
//nabbit:noalloc
func (d *Block[T]) StealTop() (Entry[T], StealOutcome) {
	blk, w, _ := d.firstLive()
	if blk == nil {
		var zero Entry[T]
		return zero, StealEmpty
	}
	return d.claimOne(blk, w)
}

// stealBatch takes a batch from blk, which was observed live with index
// word w and commit c. Sealed block: every remaining item (capped by
// max) in one CAS — this may exceed ceil(n/2), the block-granular
// batching the substrate exists for. Unsealed block (the owner's tail,
// only reachable here when it is the oldest live block): fall back to
// Chase–Lev-style repeated single claims honoring batchSize, since the
// owner may be popping concurrently.
func (d *Block[T]) stealBatch(blk *bkBlock[T], w uint64, c int64, max int, into []Entry[T]) ([]Entry[T], StealOutcome) {
	if bkSealed(w) {
		k := int(c - bkSteal(w))
		if max > 0 && k > max {
			k = max
		}
		return d.claimBatch(blk, w, k, into)
	}
	n := len(into)
	for k := batchSize(int(c-bkSteal(w)), max); k > 0; k-- {
		e, o := d.claimOne(blk, w)
		if o != StealOK {
			break
		}
		into = append(into, e) //nabbit:alloc-ok grows only a caller's undersized scratch
		w = blk.ss.Load()
		if bkSealed(w) || blk.commit.Load() <= bkSteal(w) {
			break
		}
	}
	if len(into) == n {
		return into, StealAbort
	}
	return into, StealOK
}

// Steal takes a batch of the oldest items during a single victim visit if
// filter admits the oldest: on a sealed block the whole remainder (capped
// by max) moves with one CAS. The block summary rejects whole blocks in
// O(1); the slot shadow is the exact gate on the oldest item.
//
//nabbit:noalloc
func (d *Block[T]) Steal(filter *colorset.Set, max int, into []Entry[T]) ([]Entry[T], StealOutcome) {
	blk, w, c := d.firstLive()
	if blk == nil {
		return into, StealEmpty
	}
	if filter != nil && (!blk.summaryIntersects(*filter) || !blk.slots[bkSteal(w)].shadow.intersects(*filter)) {
		// Re-validate that the block still serves the inspected
		// incarnation and index; if not, the miss verdict is stale.
		if blk.ss.Load() != w {
			return into, StealAbort
		}
		return into, StealMiss
	}
	return d.stealBatch(blk, w, c, max, into)
}

// Len returns an advisory item count (chain scan).
func (d *Block[T]) Len() int {
	n := int64(0)
	for blk := d.head.Load(); blk != nil; blk = blk.next.Load() {
		c := blk.commit.Load()
		if s := bkSteal(blk.ss.Load()); c > s {
			n += c - s
		}
	}
	return int(n)
}
