package core

import (
	"reflect"
	"testing"
	"unsafe"

	"nabbitc/internal/deque"
	"nabbitc/internal/numa"
)

// testView builds the spec view a node table needs, on the paper topology
// for the given worker count.
func testView(spec Spec, workers int) *specView {
	return newSpecView(spec, numa.Paper(workers))
}

// testArena builds a dense table over [0, bound) the way an engine would:
// key records on the spec view, a page pool of its own.
func testArena(spec Spec, workers, bound int) *nodeArena {
	sv := testView(spec, workers)
	sv.indexKeys(bound)
	return newNodeArena(sv, newPagePool(workers))
}

// testRawArena builds a table without key records, as an engine does for
// an unbounded spec: every key is its own slot.
func testRawArena(spec Spec, workers int) *nodeArena {
	return newNodeArena(testView(spec, workers), newPagePool(workers))
}

// get returns the node for k if the table's current run has created it.
func (a *nodeArena) get(k Key) (*Node, bool) {
	pn, i, ok := a.slotOf(k)
	if !ok {
		return nil, false
	}
	pg := a.page(pn)
	if pg == nil || !a.live(pg[i].state.Load()) {
		return nil, false
	}
	return &pg[i], true
}

// held counts the pages a table currently holds.
func (a *nodeArena) held() int {
	n := 0
	for i := range a.stripes {
		n += len(a.stripes[i].installed)
	}
	return n
}

// TestNodeLayout pins the per-task path's size budget: a Node is exactly
// one cache line and a page exactly 64 of them, and every page the pool
// carves — its slabs are above the allocator's 32 KB small-object limit, so
// page-aligned and headerless — starts on a line boundary, so no task's
// state straddles two lines; a deque entry (item + color mask) fits the 80
// bytes that keep a push/pop pair's copies to a few register moves.
// (The Node field inventory is pinned in internal/analysis's
// TestCoreStateLayoutPinned.)
func TestNodeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz != cacheLine {
		t.Errorf("Node is %d bytes, want exactly one %d-byte cache line", sz, cacheLine)
	}
	if sz := unsafe.Sizeof(item{}); sz > 48 {
		t.Errorf("item is %d bytes, want <= 48", sz)
	}
	if sz := unsafe.Sizeof(deque.Entry[item]{}); sz > 80 {
		t.Errorf("deque.Entry[item] is %d bytes, want <= 80", sz)
	}
	if sz := unsafe.Sizeof(nodePage{}); sz != pageNodes*cacheLine {
		t.Errorf("nodePage is %d bytes, want %d", sz, pageNodes*cacheLine)
	}
	for _, bound := range []int{1, 513, 4097} {
		a := testArena(FuncSpec{}, 2, bound)
		for k := 0; k < bound; k++ {
			a.getOrCreate(Key(k), k%2, nil)
		}
		if got, want := a.held(), (bound+pageNodes-1)/pageNodes; got != want {
			t.Errorf("universe of %d keys holds %d pages, want %d", bound, got, want)
		}
		for i := range a.dir {
			if off := uintptr(unsafe.Pointer(a.dir[i].Load())) % cacheLine; off != 0 {
				t.Errorf("universe of %d keys: page %d starts %d bytes into a cache line", bound, i, off)
			}
		}
	}
}

// TestCreateStripeLayout pins the arena's per-worker stripes (creation
// count, installed-page list): consecutive workers' stripes are a cache
// line apart, with a spare stripe on either side of the ones in use.
func TestCreateStripeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(arenaStripe{}); sz != cacheLine {
		t.Fatalf("arenaStripe is %d bytes, want %d", sz, cacheLine)
	}
	const workers = 4
	a := testArena(FuncSpec{}, workers, 8)
	if len(a.stripes) != workers || cap(a.stripes) != workers+1 {
		t.Fatalf("stripes has len %d cap %d, want %d stripes plus a trailing spare", len(a.stripes), cap(a.stripes), workers)
	}
	for w := 1; w < workers; w++ {
		d := uintptr(unsafe.Pointer(&a.stripes[w])) - uintptr(unsafe.Pointer(&a.stripes[w-1]))
		if d != cacheLine {
			t.Errorf("stripes %d and %d are %d bytes apart, want %d", w-1, w, d, cacheLine)
		}
	}
}

// span is a half-open address range.
type span struct {
	name   string
	lo, hi uintptr
}

func spanOf[T any](name string, p *T) span {
	lo := uintptr(unsafe.Pointer(p))
	return span{name, lo, lo + unsafe.Sizeof(*p)}
}

// sharesLine reports whether two address ranges touch a common cache line.
func sharesLine(a, b span) bool {
	return a.lo/cacheLine <= (b.hi-1)/cacheLine && b.lo/cacheLine <= (a.hi-1)/cacheLine
}

// TestWorkerScratchCacheLineIsolated checks the ownership rule on a built
// engine: no two workers' per-task-written
// state — rng, stats, grouping scratch and its colour table, loop
// counters, the cross-thread park/publication words, the deque header —
// falls in the same 64-byte line.
func TestWorkerScratchCacheLineIsolated(t *testing.T) {
	e, err := NewEngine(flatFanInSpec(8, 4, nil), Options{Workers: 4, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	spans := make([][]span, len(e.workers))
	for i, w := range e.workers {
		hdr := reflect.ValueOf(w.dq).Elem()
		hlo := hdr.UnsafeAddr()
		spans[i] = []span{
			// Everything between the leading and trailing pads.
			{"worker block", uintptr(unsafe.Pointer(&w.id)), uintptr(unsafe.Pointer(&w.parkCh)) + unsafe.Sizeof(w.parkCh)},
			spanOf("rng", &w.rng),
			spanOf("stats", &w.stats),
			spanOf("grouper", &w.grp),
			{"colour table", uintptr(unsafe.Pointer(&w.grp.slots[0])), uintptr(unsafe.Pointer(&w.grp.slots[0])) + uintptr(len(w.grp.slots))*unsafe.Sizeof(colorSlot{})},
			// The deque header without its own pads.
			{"deque header", hlo + cacheLine, hlo + hdr.Type().Size() - cacheLine},
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			for _, a := range spans[i] {
				for _, b := range spans[j] {
					if sharesLine(a, b) {
						t.Errorf("worker %d's %s [%#x,%#x) shares a cache line with worker %d's %s [%#x,%#x)",
							i, a.name, a.lo, a.hi, j, b.name, b.lo, b.hi)
					}
				}
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWrittenWordsIsolated pins the Engine's own split: the words
// written while graphs run (parked; the admission state; the retry
// counters) are at least a full line from the read-mostly block the
// per-task path reads, and from each other, whatever the allocation's
// alignment.
func TestEngineWrittenWordsIsolated(t *testing.T) {
	var e Engine
	end := func(off, size uintptr) uintptr { return off + size }
	groups := []struct {
		name   string
		lo, hi uintptr
	}{
		{"read-mostly block", unsafe.Offsetof(e.sv), end(unsafe.Offsetof(e.exitWG), unsafe.Sizeof(e.exitWG))},
		{"parked", unsafe.Offsetof(e.parked), end(unsafe.Offsetof(e.parked), unsafe.Sizeof(e.parked))},
		{"admission state", unsafe.Offsetof(e.nextID), end(unsafe.Offsetof(e.active), unsafe.Sizeof(e.active))},
		{"retry state", unsafe.Offsetof(e.retryMu), end(unsafe.Offsetof(e.retryOut), unsafe.Sizeof(e.retryOut))},
	}
	for i := 1; i < len(groups); i++ {
		if gap := groups[i].lo - groups[i-1].hi; groups[i].lo < groups[i-1].hi || gap < cacheLine {
			t.Errorf("%s ends at offset %d, %s starts at %d: want >= %d bytes between them",
				groups[i-1].name, groups[i-1].hi, groups[i].name, groups[i].lo, cacheLine)
		}
	}
}
