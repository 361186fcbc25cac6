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

// A dense table addresses nodes by slot, and slots come in pages: 64 nodes,
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

// nodeArena is the dense nodeTable: a two-level table over the key
// universe's slots, laid out home-major (HomeMajorIndex) so tasks whose
// data lives at the same color are contiguous in memory — the
// cache/NUMA-locality layout the paper's locality-aware variant assumes.
// The first level is a small directory, slot>>pageShift → page; a page is
// installed by CAS the first time a worker names a key in its range, drawn
// from the engine-wide pagePool, and handed back when the run is over
// (release; a table serving the same graph again keeps them). A graph
// therefore costs memory for the nodes it names, not for the spec's
// universe, and a full-universe run is simply the case where every
// directory entry gets a page. Everything static about a key
// lives once per engine in the specView's records; create-or-get is a
// record load, a directory load and a single CAS on the node's lifecycle
// word, with no lock, no hashing, and no allocation (the predecessor slice
// comes from the spec).
//
// Every field is read-only during a run, and every lookup reads them, so
// nothing a run writes may share their cache line: what a worker writes
// per creation and per installed page lives in per-worker stripes a line
// apart, in storage of its own.
type nodeArena struct {
	sv   *specView
	pool *pagePool
	dir  []atomic.Pointer[nodePage]
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
	// sink is the sink of the table's current (or last) run, -1 before
	// the first, and repeat whether the run before it had the same one or
	// there was none. A table that is asked for the same graph again — an
	// iterative workload's Execute loop — keeps its pages over the run
	// boundary (see release).
	sink   Key
	repeat bool
	// What a replay rests on (see rearm). clean: the table still holds the
	// nodes of its last run, which computed every one it created (release
	// said so). armed: the current run, or between runs the last, is a
	// replay — which is also when every successor list is whole and stripe 0
	// lists all the table's pages in slot order. unstable: the spec has
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

// arenaStripe is what one worker writes outside the nodes of a table:
// created counts the nodes it created this run, and installed lists the
// directory entries it put a page under, so release costs O(pages
// touched), not O(universe). (One list behind a shared atomic cursor — a
// locked add per page, on a line both workers want — cost the wavefront
// benchmark 8 %.) The list's storage is kept across runs. Stripes are
// padded so that consecutive ones are a cache line apart (pinned by
// TestCreateStripeLayout).
type arenaStripe struct {
	created   int64
	installed []int32
	_         [cacheLine - 32]byte
}

// newNodeArena builds an empty table over sv's indexed universe.
func newNodeArena(sv *specView, pool *pagePool) *nodeArena {
	workers := len(sv.domains)
	npages := (len(sv.recs) + pageNodes - 1) >> pageShift
	a := &nodeArena{
		sv:   sv,
		pool: pool,
		dir:  make([]atomic.Pointer[nodePage], npages),
		// A spare stripe on each side keeps the first and last worker's
		// off whatever the allocator placed next to the array.
		stripes: make([]arenaStripe, workers+2)[1 : workers+1],
		sink:    -1,
	}
	a.stamp, a.era = pool.nextStamp()
	return a
}

// getOrCreate claims the slot's lifecycle word: the CAS winner fills the
// node in and publishes it with the ready store; losers (and every later
// lookup) take the phase-load fast path. Unlike the sharded map, a lookup
// costs three dependent loads — record, directory entry, state word — with
// no hashing and no lock, and creation allocates nothing.
//
//nabbit:noalloc
func (a *nodeArena) getOrCreate(k Key, wid int, succ *Node) (*Node, bool) {
	if !a.sv.indexed(k) {
		//nabbit:alloc-ok panic-only formatting
		panic(fmt.Sprintf("core: key %d outside the spec's declared bound %d", k, len(a.sv.recs)))
	}
	rec := a.sv.recs[k]
	pg := a.dir[rec.slot>>pageShift].Load()
	if pg == nil {
		pg = a.install(rec.slot>>pageShift, wid)
	}
	n := &pg[rec.slot&pageMask]
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
			a.fill(n, k, rec.color, cur, wid, succ)
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

// install puts a page under directory entry di: take one from the pool,
// CAS it in, and record the entry for release. A loser of the CAS gives
// its page straight back — nothing was stamped on it — and uses the
// winner's.
func (a *nodeArena) install(di int32, wid int) *nodePage {
	pg := a.pool.take(wid, a.era)
	if a.dir[di].CompareAndSwap(nil, pg) {
		st := &a.stripes[wid]
		st.installed = append(st.installed, di)
		return pg
	}
	a.pool.give(wid, a.era, pg)
	return a.dir[di].Load()
}

// fill completes a slot whose creation CAS the caller just won: write the
// key's static fields from its record, run the spec's init (Predecessors),
// summarize the predecessors, and publish ready. Everything before the
// ready store is a plain write to a node no one else may read yet — the
// join count, the first successor, this worker's stripe — so a
// creation costs two locked operations in all (the claim CAS and the
// publishing store). The deferred publish also runs when the spec panics —
// with empty preds and a poisoned join — so a slot can never be left at
// nodeIniting, where same-graph racers would spin forever; the panic then
// unwinds to the worker's rescue boundary and fails the owning graph.
func (a *nodeArena) fill(n *Node, k Key, color int32, cur uint32, wid int, succ *Node) {
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
	n.key, n.color, n.home = k, color, sv.homeOfRec(k, color)
	preds := sv.spec.Predecessors(k)
	n.setPreds(preds)
	pc, pd := int32(0), int32(0)
	for i, pk := range preds {
		if !sv.indexed(pk) {
			// Left for getOrCreate(pk) to report, with pk as the culprit.
			// predMixed is absorbing for every later predecessor.
			pc, pd = predMixed, predMixed
			continue
		}
		c := sv.recs[pk].color
		pc, pd = predSummary(i, pc, pd, c, sv.domainOf(sv.homeOfRec(pk, c)))
	}
	n.predColor, n.predDomain = pc, pd
	n.join = int32(len(preds)) //nabbit:mixed-ok unpublished: the ready store orders it
	done = true
}

func (a *nodeArena) get(k Key) (*Node, bool) {
	if !a.sv.indexed(k) {
		return nil, false
	}
	slot := a.sv.recs[k].slot
	pg := a.dir[slot>>pageShift].Load()
	if pg == nil {
		return nil, false
	}
	n := &pg[slot&pageMask]
	if !a.live(n.state.Load()) {
		return nil, false
	}
	return n, true
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
		for _, di := range a.stripes[i].installed {
			pg := a.dir[di].Load()
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
		for _, di := range st.installed {
			a.pool.give(wid, a.era, a.dir[di].Swap(nil))
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
	a.repeat = (sink == a.sink || a.sink < 0) && era == a.era
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
	a.sink, a.stamp, a.era = sink, stamp, era
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
// without predecessors become the root's successors, in slot order. It
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
// rebuilds every list from the predecessor lists, successors in slot order.
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
	for _, di := range *pages {
		pg := a.dir[di].Load()
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
		for _, di := range *pages {
			pg := a.dir[di].Load()
			for i := range pg {
				n := &pg[i]
				if n.state.Load() != now {
					continue
				}
				for _, pk := range n.predKeys() {
					slot := a.sv.recs[pk].slot
					p := &a.dir[slot>>pageShift].Load()[slot&pageMask]
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

// pagePool is the one source of node pages for every dense table of an
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
