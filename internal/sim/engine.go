package sim

import (
	"fmt"
	"slices"

	"nabbitc/internal/core"
	"nabbitc/internal/deque"
	"nabbitc/internal/xrand"
)

// node is the simulator's task state. The simulator is single-threaded, so
// no atomics are needed; the lifecycle (on-demand creation, join counter,
// successor lists) mirrors core.Node exactly — created mirrors the
// absent → ready transition of the real engine's lifecycle word (a page
// holds slots that no worker has named yet).
//
// A node owns no storage beyond the spec's predecessor slice: the
// successors waiting on it are a circular list of registrations cut from
// the engine's per-run pool. succs is the latest one and succs.next the
// earliest, so a registration is appended in O(1) and notification walks
// them in registration order — which decides the order ready successors
// are handed on in, and a successor that names a predecessor twice is
// registered twice.
//
// A node keeps only what its execution asks of its colour and its home:
// which worker owns the colour, if any, and the NUMA domain of the home.
// An access cost and the locality tally depend on a home only through its
// domain. predColor and predDomain summarise the predecessors once, at
// creation, by core's rule (core.PredSummary): the colour they all share
// and the domain all their homes lie in, core.PredMixed where they differ.
// Grouping a single-coloured list, the locality tally and the
// predecessors' access cost read the summary instead of asking the spec
// about every edge. A node stays 64 bytes (TestNodeLayout).
type node struct {
	key        core.Key
	preds      []core.Key
	succs      *succEdge
	color      int32 // the spec's colour, or -1 when no worker owns it
	homeDomain int32 // the NUMA domain of the spec's home, or -1 for none
	predColor  int32
	predDomain int32
	join       int32
	computed   bool
	created    bool
}

// succEdge is one registration of owner as waiting on a node.
type succEdge struct {
	owner *node
	next  *succEdge
}

// item mirrors the real engine's morphing continuation: keys [lo, hi) of
// a spawn, all of one colour, or — while grouped is set — the spawn's
// colour groups [lo, hi), as core's Grouper partitioned them. Items travel
// by value and own no storage, and at 32 bytes a deque entry is a single
// 64-byte copy.
type item struct {
	owner   *node  // nil for successor work: the keys name ready nodes
	spawn   *spawn // what the range indexes; nil for owner's own predecessors
	lo, hi  int32
	color   int32 // the colour of a key range
	grouped bool  // [lo, hi) indexes spawn.groups, not keys
}

// spawn is what the items split from one spawn share when the spawn is not
// simply owner's predecessor list: the ready keys a completion hands on,
// or a grouped spawn's colour-major keys and its groups. Spawns, their keys
// and their groups are cut from the engine's per-run pools.
type spawn struct {
	keys   []core.Key
	groups []core.ColorRange
}

// sub narrows a grouped item to groups [lo, hi); a single group collapses
// to its key range.
func (it item) sub(lo, hi int32) item {
	if hi-lo == 1 {
		g := it.spawn.groups[lo]
		it.lo, it.hi, it.color, it.grouped = g.Lo, g.Hi, g.Color, false
		return it
	}
	it.lo, it.hi = lo, hi
	return it
}

// event is a worker's pending wake-up; which queue holds it says whether
// it is a completion or a steal probe.
type event struct {
	at  int64
	seq int64 // push order over both queues: the FIFO tie-break for determinism
	wid int32
}

func (a event) before(b event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue pops events in (at, seq) order (see the package comment). A
// worker has at most one pending event, so both halves are bounded by the
// worker count and sized once: completions sit in a binary min-heap, steal
// probes in a ring kept sorted by insertion from the tail. A probe carries
// the highest seq so far, so it goes behind every probe with the same time.
type eventQueue struct {
	probes     []event // ring of len(probes) = mask+1, live in [head, tail)
	head, tail uint
	mask       uint
	comps      []event
	nextSeq    int64
}

func newEventQueue(workers int) eventQueue {
	n := 1
	for n < workers {
		n <<= 1
	}
	return eventQueue{
		probes: make([]event, n),
		mask:   uint(n - 1),
		comps:  make([]event, 0, workers),
	}
}

func (q *eventQueue) stamp(at int64, wid int) event {
	q.nextSeq++
	return event{at: at, seq: q.nextSeq - 1, wid: int32(wid)}
}

func (q *eventQueue) pushProbe(at int64, wid int) {
	if q.tail-q.head > q.mask {
		panic("sim: more pending steal probes than workers")
	}
	ev := q.stamp(at, wid)
	i := q.tail
	for ; i != q.head && q.probes[(i-1)&q.mask].at > at; i-- {
		q.probes[i&q.mask] = q.probes[(i-1)&q.mask]
	}
	q.probes[i&q.mask] = ev
	q.tail++
}

func (q *eventQueue) pushComplete(at int64, wid int) {
	ev := q.stamp(at, wid)
	q.comps = append(q.comps, ev)
	i := len(q.comps) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q.comps[p]) {
			break
		}
		q.comps[i] = q.comps[p]
		i = p
	}
	q.comps[i] = ev
}

// earliestCompletion returns the soonest pending task completion, or
// (0, false) when no worker is executing.
func (q *eventQueue) earliestCompletion() (int64, bool) {
	if len(q.comps) == 0 {
		return 0, false
	}
	return q.comps[0].at, true
}

// nextProbe removes and returns the ring's head probe if it fires before
// every pending completion.
func (q *eventQueue) nextProbe() (event, bool) {
	if q.head == q.tail {
		return event{}, false
	}
	p := q.probes[q.head&q.mask]
	if len(q.comps) > 0 && !p.before(q.comps[0]) {
		return event{}, false
	}
	q.head++
	return p, true
}

// popCompletion removes and returns the earliest pending completion, or
// reports false when no worker is executing.
func (q *eventQueue) popCompletion() (event, bool) {
	if len(q.comps) == 0 {
		return event{}, false
	}
	top := q.comps[0]
	last := len(q.comps) - 1
	ev := q.comps[last]
	q.comps = q.comps[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q.comps[c+1].before(q.comps[c]) {
			c++
		}
		if !q.comps[c].before(ev) {
			break
		}
		q.comps[i] = q.comps[c]
		i = c
	}
	if last > 0 {
		q.comps[i] = ev
	}
	return top, true
}

type worker struct {
	id     int
	color  int
	domain int32 // the NUMA domain of color
	dq     deque.Ring[item]
	rng    xrand.Rand
	stats  *WorkerStats // the worker's element of engine.stats

	// plan is the worker's victim order (core.StealPlan), and firstSteal
	// the step the enforced first colored steal probes while
	// firstStealPending (core.FirstStealStep).
	plan       []core.StealStep
	firstSteal core.StealStep

	firstStealPending bool
	// stealStep and stealUsed place the next probe in the current sweep
	// of the plan: its step, and how many of that step's budget the sweep
	// has spent.
	stealStep   int
	stealUsed   int
	running     *node
	startedWork bool
}

type engine struct {
	opts    Options
	spec    core.CostSpec
	workers []worker
	// stats holds the workers' counters; the Result takes it over.
	stats []WorkerStats
	// The node table, paged like core's: key k is slot k&(pageSize-1) of
	// page k>>pageShift, a page is cut from nodePool when one of its keys
	// is first named, and node.created says whether a slot holds a node.
	// pages lists the pages of a declared bound (up to maxListedPages of
	// them); far holds every other page by number — all of an unbounded
	// spec's. bound is the spec's declared key bound, 0 for none.
	pages   []*[pageSize]node
	far     map[int64]*[pageSize]node
	bound   int
	sinkKey core.Key
	evq     eventQueue
	// queued counts the entries in all workers' deques together, which
	// lets a failed probe learn that nothing is stealable without visiting
	// them.
	queued   int
	done     bool
	makespan int64
	created  int
	// Per-run pools (see carve) that nodes, successor registrations and
	// the spawns of items, with their keys and groups, are cut from, so
	// that none of them is an allocation of its own.
	nodePool  []node
	succPool  []succEdge
	spawnPool []spawn
	keyPool   []core.Key
	groupPool []core.ColorRange
	// homeSpec is spec's HomeSpec side, nil when homes are colors.
	homeSpec core.HomeSpec
	// ready, grp and stealBuf are reusable scratch (the simulator is
	// single-threaded, so one engine-wide copy of each suffices): the ready
	// successors of a completion, the colour grouping of a spawn, and what
	// a steal takes.
	ready    []core.Key
	grp      core.Grouper
	stealBuf []deque.Entry[item]
}

const (
	// pageSize is the node table's page, core's 64 nodes.
	pageShift = 6
	pageSize  = 1 << pageShift
	// maxListedPages caps the pages list at core's 2^21 indexed keys.
	maxListedPages = 1 << 21 / pageSize
	// dequeCap is the capacity of a worker's first deque buffer, all of
	// them cut from one per-run block; a deque that outgrows it reallocates
	// on its own.
	dequeCap = 4
)

// Run executes the task graph on the simulated machine and returns virtual
// timing, steal, and locality statistics. Runs are deterministic: the same
// spec, sink, and options produce identical results.
func Run(spec core.CostSpec, sink core.Key, opts Options) (res *Result, err error) {
	e, err := newEngine(spec, sink, opts)
	if err != nil {
		return nil, err
	}
	// A key outside the spec's declared bound (lookup) unwinds the event
	// loop as the *core.ComputeError the real engine reports for it.
	defer func() {
		switch v := recover().(type) {
		case nil:
		case *core.ComputeError:
			res, err = nil, v
		default:
			panic(v)
		}
	}()
	return e.run()
}

func newEngine(spec core.CostSpec, sink core.Key, opts Options) (*engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &engine{
		opts:     opts,
		spec:     spec,
		sinkKey:  sink,
		evq:      newEventQueue(opts.Workers),
		stealBuf: make([]deque.Entry[item], 0, core.StealBatch),
	}
	e.grp.Init(opts.Workers)
	e.homeSpec, _ = spec.(core.HomeSpec)
	e.bound = core.KeyBoundOf(spec)
	e.pages = make([]*[pageSize]node, min((e.bound+pageSize-1)/pageSize, maxListedPages))
	p := opts.Policy
	e.workers = make([]worker, opts.Workers)
	e.stats = make([]WorkerStats, opts.Workers)
	dequePool := make([]deque.Entry[item], opts.Workers*dequeCap)
	for i := range e.workers {
		w := &e.workers[i]
		*w = worker{
			id:                i,
			color:             i,
			domain:            int32(opts.Topology.DomainOf(i)),
			dq:                deque.NewRing(dequePool[i*dequeCap : (i+1)*dequeCap : (i+1)*dequeCap]),
			stats:             &e.stats[i],
			plan:              core.StealPlan(p, opts.Topology, i),
			firstStealPending: p.Colored && p.ForceFirstColoredSteal && i != 0,
		}
		if w.firstStealPending {
			w.firstSteal = core.FirstStealStep(w.plan)
		}
		w.rng.SeedWorker(p.Seed, i)
	}
	return e, nil
}

func (e *engine) run() (*Result, error) {
	// Worker 0 seeds the computation with the sink node at t = 0.
	w0 := &e.workers[0]
	sinkNode, _ := e.getOrCreate(e.sinkKey)
	w0.stats.BusyTime += e.opts.Cost.NodeOverhead
	if n, t := e.initAndCompute(w0, e.opts.Cost.NodeOverhead, sinkNode); n != nil {
		e.startExec(w0, t, n)
	} else {
		e.acquire(w0, t)
	}
	// All other workers begin hunting for work.
	for i := 1; i < len(e.workers); i++ {
		e.evq.pushProbe(e.opts.Cost.StealAttemptCost, i)
	}

	for !e.done {
		// A probe at the ring's head that fires before every completion
		// is served straight off the ring.
		ev, probe := e.evq.nextProbe()
		if !probe {
			var ok bool
			if ev, ok = e.evq.popCompletion(); !ok {
				// Dependence deadlock: nothing executing, nothing
				// stealable, no event to make progress. Report the same
				// typed stall diagnostic as the real engine, naming the
				// nodes that were created but never computed (a cycle's
				// members and their downstream).
				return nil, core.NewStallError(0, e.sinkKey, e.pendingKeys())
			}
		}
		if probe {
			e.probe(&e.workers[ev.wid], ev.at)
		} else {
			e.complete(&e.workers[ev.wid], ev.at)
		}
	}
	return e.result(), nil
}

// result gathers the per-worker counters into a Result whose makespan is
// the sink's completion time.
func (e *engine) result() *Result {
	for i := range e.workers {
		if w := &e.workers[i]; !w.startedWork {
			w.stats.TimeToFirstWork = e.makespan
		}
	}
	return &Result{
		Makespan:     e.makespan,
		Workers:      e.stats,
		NodesCreated: e.created,
		Topology:     e.opts.Topology,
	}
}

// pendingKeys lists created-but-never-computed nodes, sorted — the
// drained-queue stall diagnostic, mirroring the real engine's
// nodeArena.pendingKeys.
func (e *engine) pendingKeys() []core.Key {
	var keys []core.Key
	pending := func(pg *[pageSize]node) {
		for i := range pg {
			if n := &pg[i]; n.created && !n.computed {
				keys = append(keys, n.key)
			}
		}
	}
	for _, pg := range e.pages {
		if pg != nil {
			pending(pg)
		}
	}
	// Iteration order doesn't reach the result: keys are sorted below, and
	// this runs only on the post-drain failure path (no scheduling decision
	// depends on it).
	//nabbit:nondeterministic-ok
	for _, pg := range e.far {
		pending(pg)
	}
	slices.Sort(keys)
	return keys
}

// lookup returns the slot of key k, cutting its page from nodePool the
// first time one of the page's keys is named.
func (e *engine) lookup(k core.Key) *node {
	if e.bound > 0 && uint64(k) >= uint64(e.bound) {
		panic(&core.ComputeError{Key: k, Value: fmt.Sprintf("sim: key %d outside the spec's declared bound %d", k, e.bound)})
	}
	p := int64(k) >> pageShift
	var pg *[pageSize]node
	if uint64(p) < uint64(len(e.pages)) {
		if pg = e.pages[p]; pg == nil {
			pg = e.newPage()
			e.pages[p] = pg
		}
	} else if pg = e.far[p]; pg == nil {
		if e.far == nil {
			e.far = make(map[int64]*[pageSize]node)
		}
		pg = e.newPage()
		e.far[p] = pg
	}
	return &pg[k&(pageSize-1)]
}

func (e *engine) newPage() *[pageSize]node {
	return (*[pageSize]node)(carve(&e.nodePool, pageSize)[:pageSize])
}

// homeOf is core.HomeOf with the spec's type resolved once per run.
func (e *engine) homeOf(k core.Key) int {
	if e.homeSpec != nil {
		return e.homeSpec.Home(k)
	}
	return e.spec.Color(k)
}

// colorHome returns k's colour and its home (homeOf) with one Color call.
func (e *engine) colorHome(k core.Key) (color, home int) {
	c := e.spec.Color(k)
	if e.homeSpec != nil {
		return c, e.homeSpec.Home(k)
	}
	return c, c
}

func (e *engine) getOrCreate(k core.Key) (*node, bool) {
	n := e.lookup(k)
	if n.created {
		return n, false
	}
	preds := e.spec.Predecessors(k)
	topo := e.opts.Topology
	c, h := e.colorHome(k)
	n.key = k
	n.color = -1
	if c >= 0 && c < len(e.workers) {
		n.color = int32(c)
	}
	n.homeDomain = int32(topo.DomainOf(h))
	n.preds = preds
	for i, p := range preds {
		c, h := e.colorHome(p)
		n.predColor, n.predDomain = core.PredSummary(i, n.predColor, n.predDomain, int32(c), int32(topo.DomainOf(h)))
	}
	n.join = int32(len(preds))
	n.created = true
	e.created++
	return n, true
}

// addSucc registers owner as waiting on pred, behind earlier registrations.
func (e *engine) addSucc(pred, owner *node) {
	s := carveOne(&e.succPool)
	s.owner, s.next = owner, s
	if last := pred.succs; last != nil {
		s.next, last.next = last.next, s
	}
	pred.succs = s
}

// carve cuts an empty slice of capacity n off the front of *pool's spare
// capacity, first replacing an exhausted pool with a fresh block (doubling
// up to 4096 elements; earlier cuts keep the block they came from).
func carve[T any](pool *[]T, n int) []T {
	if cap(*pool)-len(*pool) < n {
		*pool = make([]T, 0, max(n, min(2*cap(*pool), 4096), 32))
	}
	at := len(*pool)
	*pool = (*pool)[:at+n]
	return (*pool)[at : at : at+n]
}

func carveOne[T any](pool *[]T) *T { return &carve(pool, 1)[:1][0] }

// groupKeys partitions keys by spec color with core's Grouper
// (first-appearance order, deterministic) into an item of owner's
// predecessors — keys is owner.preds — or, without an owner, of ready
// nodes. A single-color outcome is a key range, and the uncolored/one-key
// form keeps color 0. A single-coloured predecessor list is known as such
// from owner's summary and skips the Grouper. Ready keys arrive in the
// engine's reusable scratch, so an ownerless item never aliases its input.
func (e *engine) groupKeys(owner *node, keys []core.Key) item {
	it := item{owner: owner, hi: int32(len(keys))}
	if e.opts.Policy.Colored && len(keys) > 1 {
		if owner != nil && owner.predColor != core.PredMixed {
			it.color = owner.predColor
			return it
		}
		g := &e.grp
		g.Begin()
		for _, k := range keys {
			g.Note(int32(e.spec.Color(k)))
		}
		if g.Len() > 1 {
			sp := carveOne(&e.spawnPool)
			var place []int32
			sp.groups, place = g.Finish(carve(&e.groupPool, g.Len()))
			sp.keys = carve(&e.keyPool, len(keys))[:len(keys)]
			for j, k := range keys {
				sp.keys[place[j]] = k
			}
			it.spawn, it.hi, it.grouped = sp, int32(len(sp.groups)), true
			return it
		}
		it.color = g.Color(0)
	}
	if owner == nil {
		it.spawn = carveOne(&e.spawnPool)
		it.spawn.keys = append(carve(&e.keyPool, len(keys)), keys...)
	}
	return it
}

// push puts it on w's deque with the mask the real engine would advertise
// (core.ItemColors).
func (e *engine) push(w *worker, it item) {
	var groups []core.ColorRange // nil for a key range
	if it.grouped {
		groups = it.spawn.groups[it.lo:it.hi]
	}
	w.dq.PushBottom(deque.Entry[item]{Value: it, Colors: core.ItemColors(it.color, groups, len(e.workers))})
	e.queued++
}

// interpret is the morphing-continuation interpreter in virtual time: it
// performs the spawn_colors/spawn_nodes splits (pushing stealable
// continuations) and resolves the leaf, returning the node the worker
// should now execute (nil if the leaf only did bookkeeping) and the
// advanced clock.
func (e *engine) interpret(w *worker, t int64, it item) (*node, int64) {
	if it.lo == it.hi {
		return nil, t
	}
	if it.grouped {
		lo, hi := it.lo, it.hi
		for hi-lo > 1 {
			keepLo, keepHi, pushLo, pushHi := core.KeepHalf(it.spawn.groups, lo, hi, int32(w.color), e.opts.Policy.Colored)
			e.push(w, it.sub(pushLo, pushHi))
			lo, hi = keepLo, keepHi
		}
		it = it.sub(lo, hi)
	}
	return e.interpretGroup(w, t, it)
}

// interpretGroup binary-splits a key range of one color, pushing
// same-colored continuations, and resolves the final leaf.
func (e *engine) interpretGroup(w *worker, t int64, it item) (*node, int64) {
	lo, hi := it.lo, it.hi
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		rest := it
		rest.lo, rest.hi = mid, hi
		e.push(w, rest)
		hi = mid
	}
	if it.spawn == nil {
		return e.tryInitCompute(w, t, it.owner, it.owner.preds[lo])
	}
	k := it.spawn.keys[lo]
	if it.owner == nil {
		return e.lookup(k), t
	}
	return e.tryInitCompute(w, t, it.owner, k)
}

// tryInitCompute resolves one predecessor edge of owner, charging creation
// and edge-check overheads.
func (e *engine) tryInitCompute(w *worker, t int64, owner *node, pkey core.Key) (*node, int64) {
	m := &e.opts.Cost
	pred, created := e.getOrCreate(pkey)
	if created {
		t += m.NodeOverhead
		w.stats.BusyTime += m.NodeOverhead
		e.addSucc(pred, owner)
		return e.initAndCompute(w, t, pred)
	}
	t += m.EdgeOverhead
	w.stats.BusyTime += m.EdgeOverhead
	if !pred.computed {
		e.addSucc(pred, owner)
		return nil, t
	}
	owner.join--
	if owner.join < 0 {
		panic("sim: join counter went negative")
	}
	if owner.join == 0 {
		return owner, t
	}
	return nil, t
}

// initAndCompute is core's for a created node n: with no predecessors it
// is ready to execute, otherwise its predecessors' item is interpreted at
// once.
func (e *engine) initAndCompute(w *worker, t int64, n *node) (*node, int64) {
	if len(n.preds) == 0 {
		return n, t
	}
	return e.interpret(w, t, e.groupKeys(n, n.preds))
}

// acquire drains the worker's own deque, interpreting items until one
// yields a node to execute; with an empty deque the worker turns thief.
func (e *engine) acquire(w *worker, t int64) {
	for {
		ent, ok := w.dq.PopBottom()
		if !ok {
			if len(e.workers) == 1 {
				// A lone worker with an empty deque and no completion in
				// flight can never make progress (dependence deadlock);
				// schedule nothing and let the drained event queue report
				// the stall as a typed error.
				return
			}
			e.evq.pushProbe(t+e.opts.Cost.StealAttemptCost, w.id)
			return
		}
		e.queued--
		n, t2 := e.interpret(w, t, ent.Value)
		t = t2
		if n != nil {
			e.startExec(w, t, n)
			return
		}
	}
}

// homeIn returns a home that is local to w exactly when domain d is w's:
// w's own colour, or -1, a colour no worker owns. An access cost depends on
// a home only through its domain, so it prices any home of d.
func (w *worker) homeIn(d int32) int {
	if d == w.domain {
		return w.color
	}
	return -1
}

// nodeCost is n's footprint cost on w. When every predecessor's home lies
// in one domain their accesses cost the same: one of them, times their
// number.
func (e *engine) nodeCost(w *worker, n *node) int64 {
	fp := e.spec.FootprintOf(n.key)
	m, topo := e.opts.Cost, e.opts.Topology
	home := w.homeIn(n.homeDomain)
	if n.predDomain == core.PredMixed {
		return fp.Cost(m, topo, w.color, home, len(n.preds), func(i int) int { return e.homeOf(n.preds[i]) })
	}
	return fp.Cost(m, topo, w.color, home, 0, nil) +
		int64(len(n.preds))*m.AccessCost(topo, w.color, w.homeIn(n.predDomain), fp.PredBytes)
}

func (e *engine) startExec(w *worker, t int64, n *node) {
	if !w.startedWork {
		w.startedWork = true
		w.stats.TimeToFirstWork = t
	}
	cost := e.nodeCost(w, n)
	w.running = n
	w.stats.BusyTime += cost
	e.evq.pushComplete(t+cost, w.id)
}

func (e *engine) complete(w *worker, t int64) {
	n := w.running
	w.running = nil
	if !w.stats.Executed(n.color == int32(w.color), w.domain, n.homeDomain, n.predDomain, len(n.preds)) {
		for _, p := range n.preds {
			w.stats.Access(w.domain, int32(e.opts.Topology.DomainOf(e.homeOf(p))))
		}
	}

	if e.opts.OnComplete != nil {
		e.opts.OnComplete(t, w.id, n.key)
	}

	n.computed = true
	ready := e.ready[:0]
	var first *node
	nsuccs := int64(0)
	for s := n.succs; s != nil; {
		s = s.next // from the latest registration round to the earliest, then on
		nsuccs++
		s.owner.join--
		if s.owner.join < 0 {
			panic("sim: join counter went negative in notify")
		}
		if s.owner.join == 0 {
			if len(ready) == 0 {
				first = s.owner
			}
			ready = append(ready, s.owner.key)
		}
		if s == n.succs {
			break
		}
	}
	e.ready = ready
	notifyOverhead := e.opts.Cost.EdgeOverhead * nsuccs
	t += notifyOverhead
	w.stats.BusyTime += notifyOverhead

	if n.key == e.sinkKey {
		e.done = true
		e.makespan = t
		return
	}
	if len(ready) == 1 {
		// The push of a one-node item would be popped back by acquire and
		// interpreted to exactly this node; skip the round trip (as the
		// real engine does). The event loop is single-threaded, so no
		// steal could have intervened between that push and pop.
		e.startExec(w, t, first)
		return
	}
	if len(ready) > 0 {
		e.push(w, e.groupKeys(nil, ready))
	}
	e.acquire(w, t)
}

// probe serves one steal probe of w's plan, or of the enforced first
// colored steal while it is pending. The attempt cost was charged when the
// event was scheduled. Most probes find the victim's deque empty: they
// record the attempt, move the sweep on and schedule the next probe, and
// only a probe of a non-empty deque goes on to steal.
func (e *engine) probe(w *worker, t int64) {
	s := &w.plan[w.stealStep]
	if w.firstStealPending {
		s = &w.firstSteal
	}
	v := &e.workers[s.Victim(&w.rng, w.id)]
	if v.dq.Len() == 0 {
		w.stats.Probe(s, 0, false, false)
		e.endProbe(w, s, false)
		e.scheduleNextProbe(w, t)
		return
	}
	e.steal(w, v, s, t)
}

// steal is a probe of a non-empty victim, the same as the real engine's:
// one Steal of what the step takes from v (StealStep.Take), the rest of a
// batch adopted onto the thief's deque and the oldest stolen item pushed
// last, so that acquire runs it first. The steal-success cost is charged
// once, even for a batch: that single charge is the amortization batching
// buys.
func (e *engine) steal(w, v *worker, s *core.StealStep, t int64) {
	take, batch := s.Take(v.domain == w.domain)
	ents, out := v.dq.Steal(s.Filter, take, e.stealBuf[:0])
	w.stats.Probe(s, len(ents), batch, out == deque.StealMiss)
	e.endProbe(w, s, len(ents) > 0)
	if len(ents) == 0 {
		e.scheduleNextProbe(w, t)
		return
	}
	for _, ent := range ents[1:] {
		w.dq.PushBottom(ent)
	}
	w.dq.PushBottom(ents[0])
	w.stats.BusyTime += e.opts.Cost.StealSuccessCost
	e.acquire(w, t+e.opts.Cost.StealSuccessCost)
}

// endProbe moves w's place in its plan past a probe of step s: probe by
// probe, stealStep and stealUsed walk the plan's steps in order and wrap
// after the last, while the enforced first colored steal has its own count.
func (e *engine) endProbe(w *worker, s *core.StealStep, stole bool) {
	p := &e.opts.Policy
	switch {
	case w.firstStealPending:
		if w.stats.FirstSteal(stole, p.FirstStealLimit(len(e.workers))) {
			w.firstStealPending = false
		}
	case stole && (p.Hierarchical || s.Filter == nil):
		w.stealStep, w.stealUsed = 0, 0
	default:
		// A miss moves the sweep on by one probe. So does a flat colored
		// hit, unlike every other hit here and every hunt of the real
		// engine, which restart the sweep: kept so that schedules stay
		// byte-identical, since restarting changes them
		// (TestFlatColoredHitKeepsSweep).
		if w.stealUsed++; w.stealUsed == s.Budget {
			w.stealUsed = 0
			if w.stealStep++; w.stealStep == len(w.plan) {
				w.stealStep = 0
			}
		}
	}
}

// scheduleNextProbe schedules the worker's next steal event after a failed
// probe. If nothing is stealable anywhere, fast-forward to the next
// completion instead of grinding out empty probes (pure
// simulation-efficiency optimization: the probes it skips could not have
// succeeded).
func (e *engine) scheduleNextProbe(w *worker, t int64) {
	next := t + e.opts.Cost.StealAttemptCost
	if e.queued == 0 {
		c, busy := e.evq.earliestCompletion()
		if !busy {
			// Every worker idle, every deque empty, nothing executing:
			// a dependence deadlock. Stop scheduling probes so the event
			// queue drains and Run reports the typed stall error.
			return
		}
		if c+1 > next {
			next = c + 1
		}
	}
	e.evq.pushProbe(next, w.id)
}
