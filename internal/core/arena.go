package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// cacheLine is the coherence granule the per-task layout is built around.
const cacheLine = 64

// A node table addresses nodes by slot, and slots come in pages: 64 nodes,
// 4 KB, every node on a cache line of its own. A table holds only the
// pages its graph has named a key in.
const (
	pageShift = 6
	pageNodes = 1 << pageShift
	pageMask  = pageNodes - 1
)

type nodePage [pageNodes]Node

// clear makes every slot of the page read as absent under any stamp.
func (pg *nodePage) clear() {
	for i := range pg {
		pg[i].state.Store(0)
	}
}

// scrub is clear for a page that outlives others: besides reading as absent
// it names no node any more, so the successor pointers its slots' arrays
// still carry cannot keep a dropped slab alive. Quiescent callers only.
func (pg *nodePage) scrub() {
	for i := range pg {
		clear(pg[i].succBacking())
		pg[i].state.Store(0)
	}
}

// nodeArena is the engine's node table, the atomic create-or-get that
// Nabbit's on-demand exploration relies on (the paper's "atomically attempt
// to create a predecessor with key pkey"): a two-level table over the key
// space's slots. The first level is a directory, page number → page; a
// page is installed by CAS the first time a worker names a key in its
// range, drawn from the engine-wide pagePool, and handed back when the run
// is over (release; a table serving the same graph again keeps them). A
// graph therefore costs memory for the nodes it names, not for its key
// space.
//
// A key finds its slot by one of two rules (slotOf). A spec that declares a
// bound of at most maxIndexedKeys has a record per key on the specView,
// laid out home-major (HomeMajorIndex) so tasks whose data lives at the
// same color are contiguous in memory — the cache/NUMA-locality layout the
// paper's locality-aware variant assumes — and its directory is one flat
// leaf of a page per 64 slots, so create-or-get is a record load, a
// directory load and a single CAS on the node's lifecycle word. Any other
// key is its own slot, and its page number indexes a radix tree of
// directory levels (see walk). Either way there is no lock, no hashing and
// no allocation per node (the predecessor slice comes from the spec).
//
// Every field but top is read-only during a run, and every lookup reads
// them, so nothing a run writes per node or per page may share their cache
// line: what a worker writes per creation and per installed page lives in
// per-worker stripes a line apart, in storage of its own. top is written
// once per level a raw-key tree grows by, at most ten times in the
// table's life.
type nodeArena struct {
	sv   *specView
	pool *pagePool
	// dir is the leaf for page numbers [0, len(dir)): an indexed table's
	// whole directory, and a raw-key table's first leaf, which stays child 0
	// of child 0 all the way down however far the tree grows. leaf is that
	// level, and top the tree's root, &leaf until the tree grows.
	dir  []atomic.Pointer[nodePage]
	leaf dirLevel
	top  atomic.Pointer[dirLevel]
	// stamp is the current run's epoch, pre-shifted into state-word
	// position (a multiple of epochUnit), and era the pool clock's count
	// of stamp wraps when it was issued. A slot whose stamped epoch differs
	// reads as absent; reset takes a new stamp from the pool instead of
	// clearing slots. The stamp is unique among the engine's tables within
	// its era, so a page another table filled reads as empty here. Written
	// only between runs (all workers quiescent), read by all workers during
	// a run — the Engine's park/wake handshake provides the happens-before
	// edge.
	stamp uint32
	era   uint64
	// sink is the sink of the table's current (or last) run, and primed
	// whether there was one. repeat says the run before the current one had
	// the same sink, or there was none. A table that is asked for the same
	// graph again — an iterative workload's Execute loop — keeps its pages
	// over the run boundary (see release).
	sink           Key
	primed, repeat bool
	// What a replay rests on (see rearm). clean: the table still holds the
	// nodes of its last run, which computed every one it created (release
	// said so). armed: the current run, or between runs the last, is a
	// replay — which is also when every successor list is whole and stripe 0
	// lists all the table's pages in page order. unstable: the spec has
	// returned a different predecessor slice for a key of this sink's
	// graph, so the table does not ask again. root is the replay root, a
	// node of no key whose successors are the armed run's sources.
	clean, armed, unstable bool
	root                   Node
	// stripes[w] is worker w's share of the run's bookkeeping. A stripe is
	// written plainly by its worker alone; count and release read them all
	// once the run's completion has ordered every write before the reader.
	stripes []arenaStripe
}

// dirFan is the fan-out of an interior directory level, and of a raw-key
// table's leaves: 64 entries, one 512-byte allocation.
const (
	dirShift = 6
	dirFan   = 1 << dirShift
)

// dirLevel is one level of the page directory. A leaf (shift 0) holds page
// pointers; an interior level holds dirFan children, each covering
// 1<<shift page numbers. Only a raw-key table's tree grows past its first
// leaf, and its leaves are dirFan wide, so every shift is a multiple of
// dirShift.
type dirLevel struct {
	shift uint
	pages []atomic.Pointer[nodePage]
	kids  []atomic.Pointer[dirLevel]
}

// arenaStripe is what one worker writes outside the nodes of a table:
// created counts the nodes it created this run, and installed lists the
// page numbers it put a page under, so release costs O(pages touched), not
// O(key space). (One list behind a shared atomic cursor — a locked add per
// page, on a line both workers want — cost the wavefront benchmark 8 %.)
// The list's storage is kept across runs. Stripes are padded so that
// consecutive ones are a cache line apart (pinned by
// TestCreateStripeLayout).
type arenaStripe struct {
	created   int64
	installed []uint64
	_         [cacheLine - 32]byte
}

// newNodeArena builds an empty table for sv's keys: a directory leaf of a
// page per 64 slots when sv indexes them, of dirFan pages otherwise.
func newNodeArena(sv *specView, pool *pagePool) *nodeArena {
	workers := len(sv.domains)
	npages := dirFan
	if sv.recs != nil {
		npages = (len(sv.recs) + pageNodes - 1) >> pageShift
	}
	dir := make([]atomic.Pointer[nodePage], npages)
	a := &nodeArena{
		sv:   sv,
		pool: pool,
		dir:  dir,
		leaf: dirLevel{pages: dir},
		// A spare stripe on each side keeps the first and last worker's
		// off whatever the allocator placed next to the array.
		stripes: make([]arenaStripe, workers+2)[1 : workers+1],
	}
	a.top.Store(&a.leaf)
	a.stamp, a.era = pool.nextStamp()
	return a
}

// slotOf places key k: its page number and its index in the page. An
// indexed key's slot is its record's. Any other key is its own slot, its
// page number k>>6 zigzag-folded (0, -1, 1, -2, … → 0, 1, 2, 3, …) so that
// keys of small magnitude, negative or not, stay under shallow levels; only
// keys near ±2^63 need all ten. ok is false for a key outside a declared
// bound.
func (a *nodeArena) slotOf(k Key) (pn uint64, i int, ok bool) {
	if a.sv.indexed(k) {
		s := a.sv.recs[k].slot
		return uint64(s >> pageShift), int(s & pageMask), true
	}
	p := int64(k) >> pageShift
	return uint64(p<<1) ^ uint64(p>>63), int(k & pageMask), a.sv.recs == nil
}

// entry returns the directory entry of page number pn: straight from the
// first leaf when it is in range — always, for an indexed table — else
// through walk.
func (a *nodeArena) entry(pn uint64, grow bool) *atomic.Pointer[nodePage] {
	if pn < uint64(len(a.dir)) {
		return &a.dir[pn]
	}
	return a.walk(pn, grow)
}

// walk finds page number pn's entry in the radix tree, the shape of the Go
// runtime's heap-arena map. Levels are installed by CAS the first time a
// page number under them is named and never freed while the table lives,
// so a reader needs no more than the atomic loads on its way down. A page
// number past the root's reach grows the tree upwards: a new root whose
// child 0 is the old one, CASed in. Either CAS's loser drops its level and
// takes the winner's. Without grow a missing level yields nil.
//
//nabbit:alloc-ok directory growth: one level per 64 of the level below, kept for the table's life
func (a *nodeArena) walk(pn uint64, grow bool) *atomic.Pointer[nodePage] {
	d := a.top.Load()
	for pn>>d.shift >= uint64(len(d.pages)+len(d.kids)) {
		if !grow {
			return nil
		}
		up := &dirLevel{shift: d.shift + dirShift, kids: make([]atomic.Pointer[dirLevel], dirFan)}
		up.kids[0].Store(d)
		if !a.top.CompareAndSwap(d, up) {
			up = a.top.Load()
		}
		d = up
	}
	for d.shift > 0 {
		e := &d.kids[pn>>d.shift]
		pn &= 1<<d.shift - 1
		next := e.Load()
		if next == nil {
			if !grow {
				return nil
			}
			if d.shift > dirShift {
				next = &dirLevel{shift: d.shift - dirShift, kids: make([]atomic.Pointer[dirLevel], dirFan)}
			} else {
				next = &dirLevel{pages: make([]atomic.Pointer[nodePage], dirFan)}
			}
			if !e.CompareAndSwap(nil, next) {
				next = e.Load()
			}
		}
		d = next
	}
	return &d.pages[pn]
}

// page returns the page under page number pn, nil if there is none.
func (a *nodeArena) page(pn uint64) *nodePage {
	if e := a.entry(pn, false); e != nil {
		return e.Load()
	}
	return nil
}

// getOrCreate returns the node for k, creating it if absent; the boolean
// reports whether this call created it. Exactly one caller per key
// observes true, and that caller is responsible for processing the node's
// predecessors (the node is returned fully initialized either way). wid is
// the calling worker: what a creation writes outside the node itself (the
// creation count, the page stack) is that worker's own. succ, when
// non-nil, is registered as a created node's first successor before the
// node is published, so the edge that discovers a node costs no claim-bit
// round trip; when the node already exists succ is ignored and the caller
// registers the edge itself.
//
// The CAS winner on the slot's lifecycle word fills the node in and
// publishes it with the ready store; losers (and every later lookup) take
// the phase-load fast path.
//
//nabbit:noalloc
func (a *nodeArena) getOrCreate(k Key, wid int, succ *Node) (*Node, bool) {
	pn, i, ok := a.slotOf(k)
	if !ok {
		//nabbit:alloc-ok panic-only formatting
		panic(fmt.Sprintf("core: key %d outside the spec's declared bound %d", k, len(a.sv.recs)))
	}
	e := a.entry(pn, true)
	pg := e.Load()
	if pg == nil {
		pg = a.install(e, pn, wid)
	}
	n := &pg[i]
	cur := a.stamp
	v := n.state.Load()
	if v&epochMask == cur && nodePhase(v) >= nodeReady {
		return n, false
	}
	// Absent this epoch: an absent phase (the zero word of a fresh or
	// cleared page) or a stale stamp left by whichever run held the page
	// before. Claim it by CAS from the exact observed word; any concurrent
	// claimant observed the same word, so exactly one wins.
	for v&epochMask != cur || nodePhase(v) == nodeAbsent {
		if n.state.CompareAndSwap(v, cur|nodeIniting) {
			a.fill(n, k, cur, wid, succ)
			return n, true
		}
		v = n.state.Load()
	}
	// Lost the creation race: the winner is inside the (cheap, by spec
	// contract) Predecessors call. Spin until the ready store publishes
	// the fields; the atomic load pairs with it, so everything the winner
	// wrote is visible here. A winner whose spec panicked still publishes
	// (poisoned — see fill), so this spin is bounded even on failure.
	for spins := 0; ; spins++ {
		v = n.state.Load()
		if v&epochMask == cur && nodePhase(v) >= nodeReady {
			return n, false
		}
		spinWait(spins)
	}
}

// install puts a page under directory entry e, page number pn: take one
// from the pool, CAS it in, and record pn for release. A loser of the CAS
// gives its page straight back — nothing was stamped on it — and uses the
// winner's.
func (a *nodeArena) install(e *atomic.Pointer[nodePage], pn uint64, wid int) *nodePage {
	pg := a.pool.take(wid, a.era)
	if e.CompareAndSwap(nil, pg) {
		st := &a.stripes[wid]
		st.installed = append(st.installed, pn)
		return pg
	}
	a.pool.give(wid, a.era, pg)
	return e.Load()
}

// fill completes a slot whose creation CAS the caller just won: write the
// key's static fields (from its record, or from the spec for a key without
// one), run the spec's init (Predecessors), summarize the predecessors, and
// publish ready. Everything before the
// ready store is a plain write to a node no one else may read yet — the
// join count, the first successor, this worker's stripe — so a
// creation costs two locked operations in all (the claim CAS and the
// publishing store). The deferred publish also runs when the spec panics —
// with empty preds and a poisoned join — so a slot can never be left at
// nodeIniting, where same-graph racers would spin forever; the panic then
// unwinds to the worker's rescue boundary and fails the owning graph.
func (a *nodeArena) fill(n *Node, k Key, cur uint32, wid int, succ *Node) {
	done := false
	defer func() {
		// Start from an empty list whatever the slot held: retired slots
		// keep theirs for a replay, and no run's successors may leak into
		// another. The backing array itself stays with the slot, whichever
		// table holds the page next.
		succs := n.succBacking()[:0]
		if !done {
			n.setPreds(nil)
			n.join = poisonedJoin //nabbit:mixed-ok unpublished: the ready store below orders it
		} else if succ != nil {
			succs = append(succs, succ)
		}
		n.setSuccs(succs)
		a.stripes[wid].created++
		n.state.Store(cur | nodeReady)
	}()
	sv := a.sv
	n.key = k
	n.color, n.home = sv.place(k)
	preds := sv.spec.Predecessors(k)
	n.setPreds(preds)
	pc, pd := int32(0), int32(0)
	for i, pk := range preds {
		if !sv.indexed(pk) && sv.recs != nil {
			// Outside the declared bound: left for getOrCreate(pk) to
			// report, with pk as the culprit. PredMixed is absorbing for
			// every later predecessor.
			pc, pd = PredMixed, PredMixed
			continue
		}
		c, h := sv.place(pk)
		pc, pd = PredSummary(i, pc, pd, c, sv.domainOf(h))
	}
	n.predColor, n.predDomain = pc, pd
	n.join = int32(len(preds)) //nabbit:mixed-ok unpublished: the ready store orders it
	done = true
}

// live reports whether state word v belongs to a node this table's current
// run created and published.
func (a *nodeArena) live(v uint32) bool {
	return v&epochMask == a.stamp && nodePhase(v) >= nodeReady
}

func (a *nodeArena) count() int {
	total := int64(0)
	for i := range a.stripes {
		total += a.stripes[i].created
	}
	return int(total)
}

// pendingKeys lists created-but-never-computed nodes of the current run,
// sorted. Stall-sweep only (quiescent), so the scan of every held page is
// off every hot path.
func (a *nodeArena) pendingKeys() []Key {
	var keys []Key
	for i := range a.stripes {
		for _, pn := range a.stripes[i].installed {
			pg := a.page(pn)
			for j := range pg {
				n := &pg[j]
				if v := n.state.Load(); a.live(v) && nodePhase(v) != nodeComputed {
					keys = append(keys, n.key)
				}
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// release ends a run: the table's pages go back to the pool — O(pages
// touched) — so that table memory follows the nodes in flight. The
// exception is a run whose graph the table had served the time before, or
// the table's first: the next run will most likely want the same pages
// under the same entries, every node's successor array already the right
// size and its lines where the workers' caches last saw them (handing the
// wavefront benchmark's pages back and drawing them again in another order
// costs it 8 %) — and, asked inside Execute, can replay the run outright —
// so they stay, and reset hands them back if the guess was wrong. Pages
// that go back keep their stamps: no other table of this era can mistake
// them for its own, and a table of a later era clears them on the way in
// (see pagePool).
func (a *nodeArena) release(wid int, clean bool) {
	a.clean = clean && a.repeat
	if !a.repeat {
		a.drop(wid)
	}
}

// drop hands every page back and empties the directory.
func (a *nodeArena) drop(wid int) {
	for i := range a.stripes {
		st := &a.stripes[i]
		for _, pn := range st.installed {
			a.pool.give(wid, a.era, a.entry(pn, false).Swap(nil))
		}
		st.installed = st.installed[:0]
	}
	a.root.setSuccs(nil) // name no node of a page that is gone
}

// reset readies the table for a run from sink: a fresh stamp from the
// engine-wide clock makes every slot of every page it holds or will
// install read as absent — no slot clearing, no allocation. Whatever pages
// the table kept go back first unless this is the graph they were kept
// for, and always when the new stamp opens a new era, which no page's
// words may cross. A table that kept them, was told its last run was clean
// and is reset in the quiet state tries to replay that run instead (rearm).
// A pass that gives up half-way has stamped some nodes, so discovery gets a
// stamp of its own.
func (a *nodeArena) reset(sink Key, quiet bool) *Node {
	prev, clean, listed := a.stamp, a.clean, a.armed
	a.clean, a.armed = false, false
	stamp, era := a.pool.nextStamp()
	a.repeat = (sink == a.sink || !a.primed) && era == a.era
	rearmed := 0
	if quiet && clean && a.repeat && !a.unstable {
		if rearmed = a.rearm(prev, stamp, listed); rearmed == 0 {
			stamp, era = a.pool.nextStamp()
			a.repeat = era == a.era
		}
	}
	if !a.repeat {
		a.drop(-1)
		a.unstable = false
	}
	a.sink, a.primed, a.stamp, a.era = sink, true, stamp, era
	for i := range a.stripes {
		a.stripes[i].created = 0
	}
	if rearmed == 0 {
		return nil
	}
	a.armed = true
	a.stripes[0].created = int64(rearmed)
	return &a.root
}

// rearm is the replay pass (doc.go's replay note has the argument): every
// node the last run computed — its word is exactly prev|computed — becomes
// ready under stamp with its join count back at its in-degree, and the ones
// without predecessors become the root's successors, in page order (slot
// order for an indexed table). It
// returns how many nodes it armed, zero if the run cannot be replayed: the
// spec no longer returns the very predecessor slice a node recorded
// (remembered in unstable), a Predecessors call panicked (the discovery
// that follows meets the panic inside the run's failure boundary), or
// there is no source. The caller holds the engine's quiet state, which is
// what makes the pass's plain stores sound (see Node.arm).
//
// listed says the successor lists are whole, as a replay leaves them and a
// discovery does not: an edge whose predecessor had computed by the time
// it registered was accounted on the spot (tryInitCompute) and never
// listed. So the first pass of a streak gathers the table's pages into one
// sorted list — valid for the streak, a replay installs nothing — and
// rebuilds every list from the predecessor lists, successors in page order.
func (a *nodeArena) rearm(prev, stamp uint32, listed bool) (rearmed int) {
	defer func() {
		if recover() != nil {
			rearmed = 0
		}
	}()
	pages := &a.stripes[0].installed
	if !listed {
		for i := 1; i < len(a.stripes); i++ {
			st := &a.stripes[i]
			*pages = append(*pages, st.installed...)
			st.installed = st.installed[:0]
		}
		slices.Sort(*pages)
	}
	spec := a.sv.spec
	was, now := prev|nodeComputed, stamp|nodeReady
	sources := a.root.succBacking()[:0]
	for _, pn := range *pages {
		pg := a.page(pn)
		for i := range pg {
			n := &pg[i]
			if n.state.Load() != was {
				continue
			}
			ps := spec.Predecessors(n.key)
			if len(ps) != int(n.npreds) || len(ps) > 0 && unsafe.SliceData(ps) != n.preds {
				a.unstable = true
				return 0
			}
			if !listed {
				n.nsuccs = 0
			}
			n.arm(now)
			if n.npreds == 0 {
				sources = append(sources, n)
			}
			rearmed++
		}
	}
	a.root.setSuccs(sources)
	if len(sources) == 0 {
		return 0
	}
	if !listed {
		for _, pn := range *pages {
			pg := a.page(pn)
			for i := range pg {
				n := &pg[i]
				if n.state.Load() != now {
					continue
				}
				for _, pk := range n.predKeys() {
					ppn, pi, _ := a.slotOf(pk)
					p := &a.page(ppn)[pi]
					p.setSuccs(append(p.succBacking()[:p.nsuccs], n))
				}
			}
		}
	}
	return rearmed
}

// Pool geometry. A slab is one allocation carved into pages; anything over
// the allocator's 32 KB small-object limit is page-aligned and carries no
// malloc header, so every node of every page starts a cache line. A worker
// keeps up to stackPages pages of its own and trades pageBatch at a time
// with the shared list.
const (
	slabPages  = 16
	stackPages = 32
	pageBatch  = stackPages / 2
)

// epochsPerEra is how many distinct stamps the state word's epoch field
// holds: the pool clock enters a new era each time it has issued them all.
const epochsPerEra = uint64(epochMask/epochUnit) + 1

// pagePool is the one source of node pages for every node table of an
// engine, and of the stamps that tell their runs apart. Pages are carved
// from slabs, so while graphs are in flight the pool's size follows the
// peak number of nodes in flight; an engine that goes idle falls back to
// its oldest keepSlabs slabs (see trim), so what it holds between bursts
// does not depend on how high the last burst happened to reach. In front
// of the locked shared list each worker has a private stack: a graph's
// pages are mostly installed and released by the same one or two workers,
// so the common page operation is a push or pop of the caller's own array,
// and the lock is taken once per pageBatch pages.
//
// Stamps and the wrap rule. clock counts table checkouts; a table's stamp
// is the count modulo epochsPerEra (shifted into the state word's epoch
// field) and its era the quotient. Within an era no two tables share a
// stamp, so a page that still carries another run's words reads as empty.
// Across eras a stamp can repeat, so a page never crosses an era boundary
// with its words intact: every container a page can sit in — a table, a
// worker's stack, the shared list — is tagged with the era its pages'
// words were written in, and a page moving between containers whose tags
// differ is cleared on the way. A stack or the shared list that is asked
// for a page of a later era clears what it holds and adopts that era, so
// after a wrap each container pays for one sweep and then runs tag-equal
// again.
type pagePool struct {
	stacks []pageStack

	_     [cacheLine]byte
	clock atomic.Uint64
	_     [cacheLine - 8]byte

	mu        sync.Mutex
	shared    []*nodePage  // guarded by mu
	sharedEra uint64       // guarded by mu
	slabs     [][]nodePage // every slab the pool owns, oldest first (guarded by mu)
	peak      int          // most pages ever owned at once (guarded by mu)
	// keepSlabs is how many slabs an idle pool keeps: a batch for every
	// worker's stack and two slabs on the shared list.
	keepSlabs int
}

// pageStack is one worker's private pages, touched by that worker alone
// and padded so that no two workers' stacks share a line.
type pageStack struct {
	_     [cacheLine]byte
	n     int
	era   uint64
	pages [stackPages]*nodePage
	_     [cacheLine]byte
}

func newPagePool(workers int) *pagePool {
	return &pagePool{stacks: make([]pageStack, workers), keepSlabs: workers*pageBatch/slabPages + 2}
}

// nextStamp issues the stamp and era of one table checkout.
func (p *pagePool) nextStamp() (stamp uint32, era uint64) {
	c := p.clock.Add(1) - 1
	return uint32(c%epochsPerEra) * epochUnit, c / epochsPerEra
}

// take returns a page fit for a table of the given era: zero, or stamped
// only within that era. wid names the calling worker's stack; -1 goes to
// the shared list.
func (p *pagePool) take(wid int, era uint64) *nodePage {
	if wid >= 0 {
		s := &p.stacks[wid]
		if s.n > 0 && s.era == era {
			s.n--
			return s.pages[s.n]
		}
		if s.n == 0 {
			s.n, s.era = p.takeShared(s.pages[:pageBatch], era), era
			s.n--
			return s.pages[s.n]
		}
		if s.era < era {
			for _, pg := range s.pages[:s.n] {
				pg.clear()
			}
			s.era = era
			s.n--
			return s.pages[s.n]
		}
		// A table of an era the stack has already left (it was checked out
		// before the wrap): serve it from the shared list.
	}
	var one [1]*nodePage
	p.takeShared(one[:], era)
	return one[0]
}

// takeShared fills dst with pages fit for era from the shared list,
// carving a new slab when the list runs dry, and returns how many it
// delivered (at least one).
func (p *pagePool) takeShared(dst []*nodePage, era uint64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.shared) == 0 {
		p.grow() //nabbit:alloc-ok inlined slab growth
	}
	if p.sharedEra < era {
		for _, pg := range p.shared {
			pg.clear()
		}
		p.sharedEra = era
	}
	n := min(len(dst), len(p.shared))
	rest := len(p.shared) - n
	copy(dst, p.shared[rest:])
	p.shared = p.shared[:rest]
	if p.sharedEra != era {
		for _, pg := range dst[:n] {
			pg.clear()
		}
	}
	return n
}

// grow carves one more slab into the shared list, and keeps the list's
// capacity at the pool's page count so that no later append can allocate.
//
//nabbit:alloc-ok slab growth: the pool's one allocation site, 16 pages at a time
func (p *pagePool) grow() {
	slab := make([]nodePage, slabPages)
	p.slabs = append(p.slabs, slab)
	carved := len(p.slabs) * slabPages
	p.peak = max(p.peak, carved)
	if cap(p.shared) < carved {
		p.shared = append(make([]*nodePage, 0, 2*carved), p.shared...)
	}
	for i := range slab {
		p.shared = append(p.shared, &slab[i])
	}
}

// trim shrinks an idle pool to its oldest keepSlabs slabs and leaves the
// rest to the collector. The caller holds the engine's stateMu and has
// found no run registered and no table quarantined, so no worker can be
// inside take or give (pages move only on behalf of a run, and admission
// needs the lock) and every stack is the caller's to read: a worker's last
// write to its stack is ordered before here by the join decrements that
// led to its run's sink and the finishRun that followed. A pool some of
// whose pages sit under an idle table (one kept for its graph's next run,
// see release) is left alone: which slabs those pages pin is not recorded.
// The slabs that stay are scrubbed, so they fit whatever era asks next and
// pin none of the slabs that go.
func (p *pagePool) trim() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.slabs) <= p.keepSlabs {
		return
	}
	free := len(p.shared)
	for i := range p.stacks {
		free += p.stacks[i].n
	}
	if free != len(p.slabs)*slabPages {
		return
	}
	clear(p.slabs[p.keepSlabs:])
	p.slabs = p.slabs[:p.keepSlabs]
	for i := range p.stacks {
		p.stacks[i].n = 0
		clear(p.stacks[i].pages[:])
	}
	clear(p.shared[:cap(p.shared)])
	p.shared = p.shared[:0]
	for _, slab := range p.slabs {
		for i := range slab {
			slab[i].scrub()
			p.shared = append(p.shared, &slab[i])
		}
	}
}

// give returns a page whose words were written by a table of the given
// era.
func (p *pagePool) give(wid int, era uint64, pg *nodePage) {
	if wid >= 0 {
		s := &p.stacks[wid]
		if s.n == stackPages {
			s.n -= pageBatch
			p.giveShared(s.pages[s.n:], s.era)
		}
		if s.era != era {
			if s.n == 0 {
				s.era = era
			} else {
				pg.clear()
			}
		}
		s.pages[s.n] = pg
		s.n++
		return
	}
	one := [1]*nodePage{pg}
	p.giveShared(one[:], era)
}

// giveShared moves pages written in era onto the shared list.
func (p *pagePool) giveShared(pages []*nodePage, era uint64) {
	p.mu.Lock()
	if p.sharedEra != era {
		if len(p.shared) == 0 {
			p.sharedEra = era
		} else {
			for _, pg := range pages {
				pg.clear()
			}
		}
	}
	p.shared = append(p.shared, pages...)
	p.mu.Unlock()
}
