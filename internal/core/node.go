package core

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"

	"nabbitc/internal/numa"
)

// Node lifecycle phases, held in the low two bits of Node.state (see
// doc.go for the full state machine). The phase is monotonic within a
// discovered run: absent → initializing → ready → computed. A replayed
// run's nodes read computed from its start to its end (see nodeArena.rearm).
const (
	nodeAbsent   uint32 = iota // slot exists, node not yet created
	nodeIniting                // creator won the claim and is filling fields
	nodeReady                  // fields published; successors may register
	nodeComputed               // Compute finished; successor list drained
)

// The state word carves a uint32 into three fields:
//
//	bit  31     succLockBit — successor-list claim bit
//	bits 2..30  epoch stamp — which Engine.Execute the slot belongs to
//	bits 0..1   lifecycle phase
//
// succLockBit is a short CAS-acquired spin lock guarding appends to succs,
// orthogonal to the phase bits. It is only ever held across one append, so
// spinning is cheaper than a sync.Mutex — and folding it into the
// lifecycle word lets retirement take the list and publish "computed" in
// a single CAS from an unlocked word, without acquiring the bit at all
// (see Node.retire).
//
// A failed attempt leaves no mark in the word: the worker that owns the
// node retries it in place and counts its attempts itself, and a node
// whose last attempt fails fails its run (see computeAndNotify).
//
// The epoch stamp is how a table forgets a run without touching
// every slot, and how a page that moves from one graph's table to
// another's reads as empty there: each discovery checkout takes a stamp
// from the engine-wide clock, a replay keeps its run's, and any slot whose
// stamp differs reads as absent (see nodeArena.reset and pagePool). Within
// a run every lifecycle transition preserves the stamp, so retire and
// addSuccessor never need to know the current epoch.
//
// The directive below is machine-checked: nabbitvet's atomicbits
// analyzer proves these constants carve exactly the declared bit
// ranges, disjointly, and that no code manipulates the word with raw
// literal masks. Change the layout and the directive together.
//
//nabbit:bitfield word=state width=32 layout=phase:0-1,epoch:2-30,succlock:31
const (
	phaseMask   uint32 = 0b11
	succLockBit uint32 = 1 << 31
	epochMask   uint32 = ^(phaseMask | succLockBit)
	epochUnit   uint32 = 1 << 2 // one epoch increment, pre-shifted
)

// nodePhase extracts the lifecycle phase from a state-word value.
func nodePhase(v uint32) uint32 { return v & phaseMask }

// poisonedJoin is the join value published for a node whose spec init
// (Predecessors/Color/Home) panicked: large enough that no legal
// decrement sequence reaches zero, so the node can never become ready or
// compute. The owning graph is already failing — the panic propagates to
// the worker's rescue boundary — so the poisoned node only has to keep
// concurrent workers of the same graph from hanging on an initializing-
// forever slot or computing a half-built node.
const poisonedJoin = int32(1) << 30

// Node is the runtime state of one task. Nodes are created on demand the
// first time any worker names their key, and live until the run ends.
//
// Lifecycle: a node is created (atomically, exactly once) with its
// predecessor list and a join counter equal to the number of
// predecessors. Each predecessor is accounted exactly once — either
// immediately (it had already computed when the scanning worker reached
// it) or by the notification the predecessor sends on completion to every
// node in its successor list. The worker whose decrement takes the join
// counter to zero executes the node. Nodes with no predecessors execute
// immediately upon creation by their creator.
//
// All cross-worker coordination rides the single atomic state word (phase
// + successor-list claim bit); see doc.go for the protocol.
//
// Layout: a Node is exactly one 64-byte cache line, and the node table's
// pages — 64 nodes, carved from slabs above the allocator's 32 KB
// small-object limit — start on line boundaries (both pinned by
// TestNodeLayout), so everything the
// scheduler does to a task — create, register a successor, count down the
// join, compute, drain — touches one line. That is why the
// two slices are stored as bare data pointers with int32 lengths (the
// predecessor list's capacity is never used, the successor list's is kept
// once) and colour/home as int32, and why the fields have no room to grow:
// add one and the layout pin fails.
type Node struct {
	key Key
	// preds is the first of npreds predecessor keys: the slice the spec
	// returned, never modified (predKeys rebuilds it).
	preds *Key
	// succs is the first of csuccs successor slots, nsuccs of them in use.
	// It may be touched only while holding the claim bit, by the creator
	// before the ready store, by the retiring worker after the computed
	// store (see retire), or by the replay pass in the quiet state.
	succs  **Node
	npreds int32
	nsuccs int32
	csuccs int32
	color  int32
	home   int32
	// predColor is the colour every predecessor shares, and predDomain the
	// NUMA domain every predecessor's home lies in (-1: homes no worker
	// owns), or PredMixed when they differ. Both are computed once at
	// creation, so grouping a single-coloured predecessor list and the
	// locality accounting of a single-domain one cost no per-edge lookup.
	predColor  int32
	predDomain int32
	// join counts unaccounted predecessors. The worker that decrements
	// it to zero owns the right (and obligation) to compute the node. It
	// is written plainly by the creator before the ready store publishes
	// the node, and only atomically afterwards.
	join int32

	// state is the lifecycle word: phase in the low bits, succLockBit on
	// top.
	state atomic.Uint32
	_     [4]byte
}

// PredMixed marks a predecessor summary (PredSummary) whose predecessors
// disagree (or could not be looked up): consumers fall back to per-key
// lookups.
const PredMixed = math.MinInt32

// Key returns the node's task key.
func (n *Node) Key() Key { return n.key }

// Color returns the scheduling color the spec assigned to the task.
func (n *Node) Color() int { return int(n.color) }

// Home returns the color whose memory holds the task's data.
func (n *Node) Home() int { return int(n.home) }

func (n *Node) predKeys() []Key { return unsafe.Slice(n.preds, n.npreds) }

func (n *Node) setPreds(ps []Key) {
	if len(ps) > math.MaxInt32 {
		panic("core: more than 2^31-1 predecessors")
	}
	n.preds, n.npreds = unsafe.SliceData(ps), int32(len(ps))
}

// succBacking returns the successor storage at full capacity. After
// retire its prefix holds the ready successors (see
// computeAndNotify), which successor-work items address by index.
func (n *Node) succBacking() []*Node { return unsafe.Slice(n.succs, n.csuccs) }

func (n *Node) setSuccs(s []*Node) {
	n.succs, n.nsuccs, n.csuccs = unsafe.SliceData(s), int32(len(s)), int32(cap(s))
}

// spinWait is the backoff of every state-word retry loop: the word's
// holders are mid-append or mid-publish — a handful of instructions — so a
// short tight retry wins over yielding; the Gosched fallback only matters
// if the holder got preempted.
func spinWait(spins int) {
	if spins > 64 {
		runtime.Gosched()
	}
}

// addSuccessor appends s to n's successor list so that n's completion will
// account one of s's predecessors. It returns false — and appends nothing —
// if n has already computed, in which case the caller must account the
// predecessor itself. A computed node is refused on the load alone: the
// phase is final within an epoch, so the already-computed edge costs no
// locked operation here.
//
//nabbit:noalloc
func (n *Node) addSuccessor(s *Node) bool {
	for spins := 0; ; spins++ {
		v := n.state.Load()
		if nodePhase(v) == nodeComputed {
			return false
		}
		if v&succLockBit == 0 && n.state.CompareAndSwap(v, v|succLockBit) {
			n.setSuccs(append(n.succBacking()[:n.nsuccs], s))
			n.state.Store(v)
			return true
		}
		spinWait(spins)
	}
}

// retire moves the node to computed and returns the successor list to
// notify. One CAS from an unlocked word does all of it: the claim bit was
// clear, so no append is in flight, and from the instant the computed
// phase is visible addSuccessor refuses and nobody else touches succs —
// the list belongs to the caller without ever taking the claim bit. The CAS does not ask what phase it leaves:
// every retirement is made by the goroutine that owns the node's execution
// (see doc.go's single-retirer note), so none finds the node retired by
// someone else, and a replayed node, which reads computed all through its
// run (see nodeArena.rearm), is retired like any other.
//
// The list stays where it is, length and all: it is dead to everyone else
// for the rest of this run, but a table slot that is created again
// next epoch appends into the same array from the front (fill resets the
// length), which keeps repeated Execute calls allocation-free on the notify
// path, and a slot that is replayed instead notifies the very same list
// again. So the retiring worker may reorder the list
// (computeAndNotify moves the ready successors to its front) but never
// drops an entry. The epoch stamp is preserved: stale-slot detection relies
// on every slot a run touched carrying that run's epoch.
//
//nabbit:noalloc
func (n *Node) retire() []*Node {
	for spins := 0; ; spins++ {
		v := n.state.Load()
		if v&succLockBit == 0 && n.state.CompareAndSwap(v, v&epochMask|nodeComputed) {
			return n.succBacking()[:n.nsuccs]
		}
		spinWait(spins)
	}
}

// decJoin accounts one predecessor and reports whether the node became
// ready (join reached zero).
//
//nabbit:noalloc
func (n *Node) decJoin() bool {
	v := atomic.AddInt32(&n.join, -1)
	if v < 0 {
		panic("core: join counter went negative — a predecessor was accounted twice")
	}
	return v == 0
}

// specView is the read-mostly face of a spec that node creation consults:
// the spec itself, its HomeSpec face resolved once (nil when homes are
// the colours), and the colour → NUMA-domain table that replaces two
// divisions per locality lookup. One instance is built per engine and
// shared by all of its node tables.
//
// For a spec that declares a bound of at most maxIndexedKeys it also holds
// everything static about a key — its home-major slot, colour and home —
// in one record array (indexKeys), so the engine keeps one copy however
// many tables are in flight, and one cache line of records answers the
// lookup of a key, the fill of its node and the summary of a run of
// neighbouring predecessors.
type specView struct {
	spec    Spec
	hspec   HomeSpec
	domains []int32
	// recs[k] is key k's record; nil unless indexKeys ran. homes[k] is its
	// data home, kept only for a HomeSpec — otherwise the home is the
	// colour and the record alone says it.
	recs  []keyRec
	homes []int32
	// spinning is a test hook, nil otherwise: called on each lap of the spin
	// of a worker that lost key k's creation race (see getOrCreate).
	spinning func(k Key)
}

// keyRec is the static half of an indexed key's node: the home-major slot
// indexKeys assigned to the key and the colour the spec gave it.
type keyRec struct {
	slot  int32
	color int32
}

func newSpecView(spec Spec, topo numa.Topology) *specView {
	sv := &specView{spec: spec, domains: make([]int32, topo.Workers)}
	sv.hspec, _ = spec.(HomeSpec)
	for c := range sv.domains {
		sv.domains[c] = int32(topo.DomainOf(c))
	}
	return sv
}

// indexKeys builds the key records for the universe [0, bound) in place,
// home-major: slots ordered by home (keys with one home contiguous, homes
// ascending), stable by key within a home, and homes outside [0, workers)
// — colours the scheduler cannot localize anyway — in one bucket after the
// real ones. The first pass stores each key's colour and home bucket in
// its record and counts the buckets; after a prefix sum the second turns
// each bucket into the key's slot. Nothing key-sized is allocated but the
// records, and homes for a HomeSpec: 8 bytes a key, 12 with one.
func (sv *specView) indexKeys(bound int) {
	workers := int32(len(sv.domains))
	sv.recs = make([]keyRec, bound)
	if sv.hspec != nil {
		sv.homes = make([]int32, bound)
	}
	starts := make([]int32, workers+2)
	for k := range sv.recs {
		c, h := sv.colorHome(Key(k))
		if sv.homes != nil {
			sv.homes[k] = h
		}
		b := workers
		if uint32(h) < uint32(workers) {
			b = h
		}
		sv.recs[k] = keyRec{slot: b, color: c}
		starts[b+1]++
	}
	for b := 1; b < len(starts); b++ {
		starts[b] += starts[b-1]
	}
	for k := range sv.recs {
		r := &sv.recs[k]
		b := r.slot
		r.slot = starts[b]
		starts[b]++
	}
}

// indexed reports whether k has a key record.
func (sv *specView) indexed(k Key) bool { return uint64(k) < uint64(len(sv.recs)) }

// homeOfRec returns the home of indexed key k, whose record says color.
func (sv *specView) homeOfRec(k Key, color int32) int32 {
	if sv.homes != nil {
		return sv.homes[k]
	}
	return color
}

// colorHome asks the spec for task k's colour and true data home (HomeOf
// without a second Color call).
func (sv *specView) colorHome(k Key) (color, home int32) {
	c := sv.spec.Color(k)
	if sv.hspec != nil {
		return int32(c), int32(sv.hspec.Home(k))
	}
	return int32(c), int32(c)
}

// colorOf and place return task k's colour, and its colour and data home,
// without creating anything: from k's record when it has one, from the
// spec otherwise.
func (sv *specView) colorOf(k Key) int32 {
	if sv.indexed(k) {
		return sv.recs[k].color
	}
	return int32(sv.spec.Color(k))
}

func (sv *specView) place(k Key) (color, home int32) {
	if sv.indexed(k) {
		c := sv.recs[k].color
		return c, sv.homeOfRec(k, c)
	}
	return sv.colorHome(k)
}

// domainOf returns the NUMA domain of colour c, or -1 for a colour no
// worker owns (remote to everyone, as numa.Topology.Remote has it).
func (sv *specView) domainOf(c int32) int32 {
	if uint32(c) < uint32(len(sv.domains)) {
		return sv.domains[c]
	}
	return -1
}

// PredSummary folds one more predecessor's colour and home domain into
// the running summary (i is the predecessor's index): after the last, the
// colour and the domain every predecessor shares, each PredMixed when they
// differ. The engine folds it into a Node at creation and the simulator
// into its own node, so the two machines summarise by one rule.
func PredSummary(i int, pc, pd, c, d int32) (int32, int32) {
	if i == 0 {
		return c, d
	}
	if c != pc {
		pc = PredMixed
	}
	if d != pd {
		pd = PredMixed
	}
	return pc, pd
}

// NodeStore is an exported handle to a node table outside any engine run
// — the hook the benchmark module's node-store probes use to measure the
// create-or-get path directly. The engine builds its own table per run; a
// NodeStore never feeds one.
type NodeStore struct{ a *nodeArena }

// NewNodeStore builds a standalone node table for spec: NodeTableDense
// indexes the keys as a run would, NodeTableSharded ignores the spec's
// bound and places every key by its own value. Unlike Run there is no
// withDefaults step here, so workers is validated directly.
func NewNodeStore(spec Spec, workers int, slots NodeTableBackend) (*NodeStore, error) {
	if workers < 1 {
		return nil, fmt.Errorf("core: NewNodeStore needs workers >= 1, got %d", workers)
	}
	sv, pool := newTableShared(spec, numa.Paper(workers))
	if slots == NodeTableSharded {
		sv.recs, sv.homes = nil, nil
	}
	return &NodeStore{a: newNodeArena(sv, pool)}, nil
}

// GetOrCreate returns the node for k, creating it if absent; the boolean
// reports creation. Creations are counted on worker 0's stripe, so unlike
// the engine's per-worker use a NodeStore is for one goroutine at a time.
// A spec that panics while a node is created leaves its slot claimed;
// the store's next call publishes it poisoned, as the engine's rescue
// boundary does, before it looks at any key. A NodeStore has one goroutine,
// so nobody can be spinning on the slot in between, and the probes that
// time this call pay no deferred call for it.
func (s *NodeStore) GetOrCreate(k Key) (*Node, bool) {
	if s.a.stripes[0].filling != nil {
		s.a.abandonFill(0)
	}
	return s.a.getOrCreate(k, 0, nil)
}

// Count returns the number of created nodes.
func (s *NodeStore) Count() int { return s.a.count() }
