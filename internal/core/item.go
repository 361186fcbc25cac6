package core

import "nabbitc/internal/colorset"

// The paper's spawn_colors/spawn_nodes recursion reorganizes a spawn of
// many nodes so that the executing worker descends into the half of the
// color groups containing its own color, while the other half is left
// behind as a stealable continuation whose color set is advertised to the
// runtime (cilkrts_set_next_colors). Go has no continuation stealing, so
// that continuation is reified here as a deque item: an item *is* the
// pending "spawn_colors(second_half)" call, naming the remaining work and
// advertising its colors for the thief's O(1) check.
//
// An item never owns storage. It is an index range [lo, hi) into work that
// already lives somewhere for the rest of the run:
//
//   - predecessor work (itemSucc clear): keys of owner's predecessor list —
//     the spec's own immutable slice, or its colour-major permutation held
//     by a grouping — each to be resolved with tryInitCompute;
//   - successor work (itemSucc set): the ready successors of the computed
//     node owner, which its retiring worker compacted into the front of
//     owner's (now otherwise dead) successor storage, each to be computed
//     directly.
//
// Binary splitting produces a torrent of same-coloured continuations, and
// for those the range and one colour are the whole item: splitting copies
// 40 bytes and allocates nothing, and the pushed item's mask is that one
// colour. Only work that spans several colours carries a *grouping (one
// allocation per spawn, shared by every item split from it); while
// itemGroups is set the range indexes the grouping's colour groups instead
// of elements.
//
// The rules an item is built and run by — the grouping of a spawn by
// colour (Grouper, into ColorRanges), the mask it advertises (ItemColors)
// and the half of a split a worker keeps (KeepHalf) — are exported because
// internal/sim runs them too: both machines state each rule once, here,
// as they do a probe's take (StealStep.Take), the tally of an executed
// node (Counters.Executed) and the stall diagnostic (NewStallError).
// TestEngineAndSimulatorAgree (internal/sim) pins that on one worker the
// two complete the same nodes in the same order.

const (
	itemSucc   uint8 = 1 << iota // successor work (ready nodes), not predecessor keys
	itemGroups                   // [lo,hi) indexes multi.groups, not elements
)

// ColorRange is one colour group of a grouped spawn: elements [Lo, Hi) of
// the colour-major permutation.
type ColorRange struct {
	Color  int32
	Lo, Hi int32
}

// grouping is the shared description of a multi-coloured spawn: the
// colour groups in first-appearance order and, for predecessor work, the
// permuted keys they index (successor work is permuted in place in the
// owner's successor storage). Up to len(inline) groups live in the
// grouping itself. Groupings and their keys are cut from the run's node
// table (spawnSlab), so they live exactly as long as its nodes.
type grouping struct {
	keys   []Key
	groups []ColorRange
	inline [4]ColorRange
}

// item is a deque entry: a reified spawn_colors/spawn_nodes continuation.
// The zero item is empty. run identifies the graph the continuation
// belongs to — with many graphs in flight, workers interleave items of
// different runs in one deque, and the run pointer carries each item's
// node table and completion state along with it.
type item struct {
	run    *graphRun
	owner  *Node
	multi  *grouping // non-nil iff the work was grouped by colour
	lo, hi int32
	color  int32 // the single colour of an element-range item
	kind   uint8
}

// sub narrows a grouped item to groups [lo, hi); a single group collapses
// to the element-range form.
func (it item) sub(lo, hi int32) item {
	if hi-lo == 1 {
		g := it.multi.groups[lo]
		it.lo, it.hi, it.color = g.Lo, g.Hi, g.Color
		it.kind &^= itemGroups
		return it
	}
	it.lo, it.hi = lo, hi
	return it
}

// groups returns the colour groups a grouped item spans, nil for an
// element-range item.
func (it item) groups() []ColorRange {
	if it.kind&itemGroups == 0 {
		return nil
	}
	return it.multi.groups[it.lo:it.hi]
}

// keys returns the key array a predecessor-work item indexes.
func (it item) keys() []Key {
	if it.multi != nil {
		return it.multi.keys
	}
	return it.owner.predKeys()
}

// ItemColors returns the colour mask a deque item advertises, sized for
// nworkers colours: the union of its groups' colours or, when groups is
// nil, its one colour c. Colours outside [0, nworkers) are skipped: no
// worker can prefer them, so advertising them is pointless (and with an
// invalid colouring, Table III, every mask stays empty — all colored
// steals miss, as intended). Both machines build their masks here.
func ItemColors(c int32, groups []ColorRange, nworkers int) colorset.Set {
	s := colorset.New(nworkers) //nabbit:alloc-ok colorset spill, only beyond InlineColors workers
	if groups == nil {
		if uint32(c) < uint32(nworkers) {
			s.Add(int(c))
		}
		return s
	}
	for _, g := range groups {
		if uint32(g.Color) < uint32(nworkers) {
			s.Add(int(g.Color))
		}
	}
	return s
}

// KeepHalf is spawn_colors' descent step over a grouped item's colour
// groups [lo, hi), two or more of them: the worker keeps one half and
// pushes the other as a stealable continuation. It keeps the lower half
// unless colored scheduling is on and only the upper half holds its own
// colour. Both machines split a grouped item here.
func KeepHalf(groups []ColorRange, lo, hi, own int32, colored bool) (keepLo, keepHi, pushLo, pushHi int32) {
	mid := lo + (hi-lo)/2
	if colored && containsColor(groups[mid:hi], own) && !containsColor(groups[lo:mid], own) {
		return mid, hi, lo, mid
	}
	return lo, mid, mid, hi
}

// containsColor reports whether any group has the given colour.
func containsColor(groups []ColorRange, color int32) bool {
	for _, g := range groups {
		if g.Color == color {
			return true
		}
	}
	return false
}

// distinctColor is grouping-scratch bookkeeping for one color observed in
// a key or node list: its first-appearance index fixes the group order,
// and off is the placement cursor while Finish places the elements.
type distinctColor struct {
	color int32
	count int32
	off   int32
}

// colorSlot maps one colour to its index in the distinct list, valid iff
// stamp equals the grouper's current pass.
type colorSlot struct {
	idx   int32
	stamp uint32
}

// Grouper is the colour grouping of a spawn, the one both machines run:
// Begin a pass, Note each element's colour in order, then Finish into the
// colour groups in first-appearance order and each element's slot in the
// colour-major permutation. It keeps a colour-indexed table with epoch
// stamps (O(1) reset), so noting an element is one table probe however
// many colours the spawn has. The engine's workers each hold one inside
// their cache-line-isolated block (the slices start on the inline arrays
// below, growing onto the heap only for spawns wider than those, and the
// colour table is bracketed by a line of slack on each side); the
// single-threaded simulator holds one per engine.
type Grouper struct {
	slots    []colorSlot // color -> distinct index
	cur      uint32
	place    []int32 // per element: its group while noting, its slot after Finish
	distinct []distinctColor

	placeBuf    [16]int32
	distinctBuf [8]distinctColor
}

// Init sizes the grouper for colours [0, ncolors); g must already be at
// its final address (the slices point into it).
func (g *Grouper) Init(ncolors int) {
	const slack = cacheLine / 8 // colorSlots per cache line
	g.slots = make([]colorSlot, ncolors+2*slack)[slack : slack+ncolors]
	g.place = g.placeBuf[:0]
	g.distinct = g.distinctBuf[:0]
}

// Begin starts a grouping pass.
func (g *Grouper) Begin() {
	g.cur++
	if g.cur == 0 {
		// Epoch counter wrapped: invalidate all stamps the slow way once
		// every 2^32 groupings.
		clear(g.slots)
		g.cur = 1
	}
	g.place = g.place[:0]
	g.distinct = g.distinct[:0]
}

// Note records the pass's next element, of colour c. Colours outside the
// table — possible only under the invalid-coloring ablation — fall back
// to a linear scan of the distinct list.
func (g *Grouper) Note(c int32) {
	gi := -1
	inTable := uint32(c) < uint32(len(g.slots))
	if inTable {
		if s := g.slots[c]; s.stamp == g.cur {
			gi = int(s.idx)
		}
	} else {
		for i := range g.distinct {
			if g.distinct[i].color == c {
				gi = i
				break
			}
		}
	}
	if gi < 0 {
		gi = len(g.distinct)
		g.distinct = append(g.distinct, distinctColor{color: c})
		if inTable {
			g.slots[c] = colorSlot{idx: int32(gi), stamp: g.cur}
		}
	}
	g.distinct[gi].count++
	g.place = append(g.place, int32(gi))
}

// Len returns the number of distinct colours noted in this pass.
func (g *Grouper) Len() int { return len(g.distinct) }

// Color returns the i-th distinct colour noted in this pass.
func (g *Grouper) Color(i int) int32 { return g.distinct[i].color }

// Finish ends the pass: it appends the colour groups to into and returns
// them, with place[j], the slot of the pass's j-th element in the
// colour-major permutation, valid until the next Begin.
func (g *Grouper) Finish(into []ColorRange) (groups []ColorRange, place []int32) {
	off := int32(0)
	for i := range g.distinct {
		d := &g.distinct[i]
		d.off = off
		into = append(into, ColorRange{Color: d.color, Lo: off, Hi: off + d.count}) //nabbit:alloc-ok grows only a caller's undersized buffer
		off += d.count
	}
	for j, gi := range g.place {
		d := &g.distinct[gi]
		g.place[j] = d.off
		d.off++
	}
	return into, g.place
}

// newGrouping finishes the worker's grouping pass into a grouping cut from
// r's table, with room for nkeys permuted keys.
//
//nabbit:alloc-ok a slab block until the table's slab fits its runs, and the groups of a spawn of more than four colours
func (w *worker) newGrouping(r *graphRun, nkeys int) (*grouping, []int32) {
	s := r.nt.slab(w.id)
	m := &carve(&s.groupings, 1)[0]
	buf := m.inline[:0]
	if w.grp.Len() > len(m.inline) {
		buf = make([]ColorRange, 0, w.grp.Len())
	}
	var place []int32
	m.groups, place = w.grp.Finish(buf)
	m.keys = carve(&s.keys, nkeys)
	return m, place
}

// groupKeys returns the ready-to-run item for the predecessors of owner,
// partitioned by color in first-appearance order (deterministic for the
// simulator). Everything a worker usually needs was settled at owner's
// creation: when one color covers the whole list (Node.predColor) — or
// colored scheduling is off — the item is just the full range of the
// spec's own slice (preds are immutable, so aliasing is free), with no
// per-key color lookup and no allocation.
//
//nabbit:noalloc
func (w *worker) groupKeys(r *graphRun, owner *Node) item {
	it := item{run: r, owner: owner, hi: owner.npreds, color: owner.predColor}
	if it.color != PredMixed {
		return it
	}
	keys := owner.predKeys()
	if !w.e.colored {
		it.color = w.e.sv.colorOf(keys[0])
		return it
	}
	g := &w.grp
	g.Begin()
	for _, k := range keys {
		g.Note(w.e.sv.colorOf(k))
	}
	if g.Len() == 1 {
		it.color = g.Color(0)
		return it
	}
	// Scatter pass: one backing array, carved up by the groups' ranges.
	m, place := w.newGrouping(r, len(keys))
	for j, k := range keys {
		m.keys[place[j]] = k
	}
	it.multi, it.hi, it.kind = m, int32(len(m.groups)), itemGroups
	return it
}

// groupNodes returns the successor-work item for the ready successors of
// the just-computed node owner — the first nready slots of its successor
// storage — partitioned by color in first-appearance order. The nodes are
// permuted in place (through the worker's staging scratch), so a spawn
// allocates nothing beyond what newGrouping cuts from the table.
//
//nabbit:noalloc
func (w *worker) groupNodes(r *graphRun, owner *Node, nready int) item {
	nodes := owner.succBacking()[:nready]
	it := item{run: r, owner: owner, hi: int32(nready), color: nodes[0].color, kind: itemSucc}
	if !w.e.colored {
		return it
	}
	uniform := true
	for _, n := range nodes[1:] {
		if n.color != it.color {
			uniform = false
			break
		}
	}
	if uniform {
		return it
	}
	g := &w.grp
	g.Begin()
	for _, n := range nodes {
		g.Note(n.color)
	}
	m, place := w.newGrouping(r, 0)
	w.stage = append(w.stage[:0], nodes...)
	for j, n := range w.stage {
		nodes[place[j]] = n
	}
	clear(w.stage) // drop the node references
	it.multi, it.hi, it.kind = m, int32(len(m.groups)), itemSucc|itemGroups
	return it
}
