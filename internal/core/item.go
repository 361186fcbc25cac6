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

const (
	itemSucc   uint8 = 1 << iota // successor work (ready nodes), not predecessor keys
	itemGroups                   // [lo,hi) indexes multi.groups, not elements
)

// colorRange is one colour group of a grouping: elements [lo, hi) of the
// colour-major permutation.
type colorRange struct {
	color  int32
	lo, hi int32
}

// grouping is the shared description of a multi-coloured spawn: the
// colour groups in first-appearance order and, for predecessor work, the
// permuted keys they index (successor work is permuted in place in the
// owner's successor storage). Up to len(inline) groups live in the
// grouping itself.
type grouping struct {
	keys   []Key
	groups []colorRange
	inline [4]colorRange
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
		it.lo, it.hi, it.color = g.lo, g.hi, g.color
		it.kind &^= itemGroups
		return it
	}
	it.lo, it.hi = lo, hi
	return it
}

// keys returns the key array a predecessor-work item indexes.
func (it item) keys() []Key {
	if it.multi != nil {
		return it.multi.keys
	}
	return it.owner.predKeys()
}

// colors returns the color mask advertised for the item, sized for
// nworkers colors. Colors outside the worker range are skipped: no worker
// can prefer them, so advertising them is pointless (and with an invalid
// coloring, Table III, every mask stays empty — all colored steals miss,
// as intended).
func (it item) colors(nworkers int) colorset.Set {
	s := colorset.New(nworkers) //nabbit:alloc-ok colorset spill, only beyond InlineColors workers
	if it.kind&itemGroups == 0 {
		if uint32(it.color) < uint32(nworkers) {
			s.Add(int(it.color))
		}
		return s
	}
	for _, g := range it.multi.groups[it.lo:it.hi] {
		if uint32(g.color) < uint32(nworkers) {
			s.Add(int(g.color))
		}
	}
	return s
}

// containsColor reports whether any group has the given color.
func containsColor(groups []colorRange, color int32) bool {
	for _, g := range groups {
		if g.color == color {
			return true
		}
	}
	return false
}

// distinctColor is grouping-scratch bookkeeping for one color observed in
// a key or node list: its first-appearance index fixes the group order,
// and off doubles as the placement cursor during the scatter pass.
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

// grouper is the reusable per-worker grouping scratch: a color-indexed
// table with epoch stamps (O(1) reset), the recorded per-element group
// indices from the counting pass, the distinct-color list, and the node
// staging area of the in-place successor scatter. It is written on every
// multi-coloured spawn, so all of it lives inside the owning worker's
// cache-line-isolated block: the slices start on the inline arrays below
// (growing onto the heap only for spawns wider than those), and the colour
// table — sized by the worker count — is bracketed by a line of slack on
// each side.
type grouper struct {
	slots    []colorSlot // color -> distinct index
	cur      uint32
	elemGI   []int32 // per-element group index recorded during the count pass
	distinct []distinctColor
	stage    []*Node

	elemBuf     [16]int32
	distinctBuf [8]distinctColor
	stageBuf    [8]*Node
}

// init sizes the scratch for nworkers colours; g must already be at its
// final address (the slices point into it).
func (g *grouper) init(nworkers int) {
	const slack = cacheLine / 8 // colorSlots per cache line
	g.slots = make([]colorSlot, nworkers+2*slack)[slack : slack+nworkers]
	g.elemGI = g.elemBuf[:0]
	g.distinct = g.distinctBuf[:0]
	g.stage = g.stageBuf[:0]
}

// begin starts a grouping pass.
func (g *grouper) begin() {
	g.cur++
	if g.cur == 0 {
		// Epoch counter wrapped: invalidate all stamps the slow way once
		// every 2^32 groupings.
		clear(g.slots)
		g.cur = 1
	}
	g.elemGI = g.elemGI[:0]
	g.distinct = g.distinct[:0]
}

// noteColor records one element of color c. Colors outside
// [0, len(slots)) — possible only under the invalid-coloring ablation —
// fall back to a linear scan of the distinct list.
func (g *grouper) noteColor(c int32) {
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
	g.elemGI = append(g.elemGI, int32(gi))
}

// finish converts the distinct counts into placement cursors and returns
// the grouping describing them (keys unset).
//
//nabbit:alloc-ok one grouping per multi-coloured spawn escapes into deque items by contract
func (g *grouper) finish() *grouping {
	m := &grouping{}
	if len(g.distinct) <= len(m.inline) {
		m.groups = m.inline[:len(g.distinct)]
	} else {
		m.groups = make([]colorRange, len(g.distinct))
	}
	off := int32(0)
	for i := range g.distinct {
		d := &g.distinct[i]
		d.off = off
		m.groups[i] = colorRange{color: d.color, lo: off, hi: off + d.count}
		off += d.count
	}
	return m
}

// groupKeys returns the ready-to-run item for the predecessors of owner,
// partitioned by color in first-appearance order (deterministic for the
// simulator). Everything a worker usually needs was settled at owner's
// creation: when one color covers the whole list (Node.predColor) — or
// colored scheduling is off — the item is just the full range of the
// spec's own slice (preds are immutable, so aliasing is free), with no
// per-key color lookup and no allocation.
//
//nabbit:alloc-ok the permuted key slice of a multi-coloured spawn escapes into deque items by contract; bounded by the ExecuteReuse gate
func (w *worker) groupKeys(r *graphRun, owner *Node) item {
	it := item{run: r, owner: owner, hi: owner.npreds, color: owner.predColor}
	if it.color != predMixed {
		return it
	}
	keys := owner.predKeys()
	if !w.e.colored {
		it.color = w.e.sv.colorOf(keys[0])
		return it
	}
	g := &w.grp
	g.begin()
	for _, k := range keys {
		g.noteColor(w.e.sv.colorOf(k))
	}
	if len(g.distinct) == 1 {
		it.color = g.distinct[0].color
		return it
	}
	// Scatter pass: one backing array, carved up by the groups' ranges.
	m := g.finish()
	m.keys = make([]Key, len(keys))
	for j, k := range keys {
		d := &g.distinct[g.elemGI[j]]
		m.keys[d.off] = k
		d.off++
	}
	it.multi, it.hi, it.kind = m, int32(len(m.groups)), itemGroups
	return it
}

// groupNodes returns the successor-work item for the ready successors of
// the just-computed node owner — the first nready slots of its successor
// storage — partitioned by color in first-appearance order. The nodes are
// permuted in place (through the worker's staging scratch), so a
// single-coloured spawn allocates nothing and a multi-coloured one only
// its grouping.
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
	g.begin()
	for _, n := range nodes {
		g.noteColor(n.color)
	}
	m := g.finish() //nabbit:alloc-ok the one grouping of a multi-coloured spawn (finish, inlined)
	g.stage = append(g.stage[:0], nodes...)
	for j, n := range g.stage {
		d := &g.distinct[g.elemGI[j]]
		nodes[d.off] = n
		d.off++
	}
	clear(g.stage) // drop the node references
	it.multi, it.hi, it.kind = m, int32(len(m.groups)), itemSucc|itemGroups
	return it
}
