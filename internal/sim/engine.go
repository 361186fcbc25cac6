package sim

import (
	"fmt"
	"slices"
	"time"

	"nabbitc/internal/colorset"
	"nabbitc/internal/core"
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
type node struct {
	key      core.Key
	preds    []core.Key
	color    int
	home     int
	succs    *succEdge
	join     int32
	computed bool
	created  bool
}

// succEdge is one registration of owner as waiting on a node.
type succEdge struct {
	owner *node
	next  *succEdge
}

// group is a run of same-colored keys: predecessors of an item's owner or,
// in an item without an owner, ready nodes.
type group struct {
	color int
	keys  []core.Key
}

// item mirrors the real engine's morphing continuation, including its
// inline single-group form (authoritative when groups == nil): binary
// splitting pushes single-group items whose color mask is the group's own
// color, so the mask construction stays in lockstep with internal/core.
// Items travel by value and own no storage: their key slices are cut from
// the spec's predecessor slices or from the engine's per-run key pool.
type item struct {
	owner  *node // nil for successor work: the keys name ready nodes
	single group // inline one-group form, authoritative when groups == nil
	groups []group
}

// size returns the number of leaf work units in the item.
func (it *item) size() int {
	if it.groups == nil {
		return len(it.single.keys)
	}
	total := 0
	for _, g := range it.groups {
		total += len(g.keys)
	}
	return total
}

type entry struct {
	it     item
	colors colorset.Set
}

// wdeque is a single-threaded deque: owner pushes/pops at the tail,
// thieves take from the head. Vacated slots are not cleared: everything an
// entry refers to lives exactly as long as the run does.
type wdeque struct {
	buf  []entry
	head int
	// e is the engine the deque belongs to: its first push cuts the buffer
	// from e.dequePool, and every push, pop and steal keeps e.queued, the
	// count of entries in all deques together, current — what lets a failed
	// probe learn that nothing is stealable without visiting them.
	e *engine
}

func (d *wdeque) len() int { return len(d.buf) - d.head }

func (d *wdeque) pushBottom(ent entry) {
	if cap(d.buf) == 0 {
		d.buf = carve(&d.e.dequePool, dequeCap)
	}
	d.buf = append(d.buf, ent)
	d.e.queued++
}

// removed accounts for one entry taken from either end. An empty deque
// restarts at the front of its buffer, so the slots thieves vacated are
// reused rather than left as a dead prefix behind later pushes.
func (d *wdeque) removed() {
	d.e.queued--
	if d.head == len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
	}
}

func (d *wdeque) popBottom() (item, bool) {
	if d.len() == 0 {
		return item{}, false
	}
	it := d.buf[len(d.buf)-1].it
	d.buf = d.buf[:len(d.buf)-1]
	d.removed()
	return it, true
}

// top returns the oldest entry in place (nil when empty), valid until the
// deque's next operation.
func (d *wdeque) top() *entry {
	if d.len() == 0 {
		return nil
	}
	return &d.buf[d.head]
}

func (d *wdeque) stealTop() (item, bool) {
	if d.len() == 0 {
		return item{}, false
	}
	it := d.buf[d.head].it
	d.head++
	d.removed()
	if d.head > 64 && d.head*2 > len(d.buf) {
		// Compact to keep memory bounded.
		d.buf = append(d.buf[:0], d.buf[d.head:]...)
		d.head = 0
	}
	return it, true
}

// stealHalf removes min(ceil(n/2), max) of the oldest items, oldest first
// — the virtual-time mirror of the real deques' batched steal — returning
// the first and moving the rest, in order, onto the thief's deque; n is the
// batch size, 0 from an empty deque. The simulator is single-threaded, so
// unlike Chase–Lev this batch really is atomic.
func (d *wdeque) stealHalf(max int, thief *wdeque) (first item, n int) {
	n = d.len()
	if n == 0 {
		return item{}, 0
	}
	k := (n + 1) / 2
	if max > 0 && k > max {
		k = max
	}
	first, _ = d.stealTop()
	for i := 1; i < k; i++ {
		ent := *d.top()
		d.stealTop()
		thief.pushBottom(ent)
	}
	return first, k
}

type eventKind uint8

const (
	evComplete eventKind = iota
	evSteal
)

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

// pop removes the earlier of the two queues' heads.
func (q *eventQueue) pop() (event, eventKind, bool) {
	if q.head != q.tail {
		p := q.probes[q.head&q.mask]
		if len(q.comps) == 0 || p.before(q.comps[0]) {
			q.head++
			return p, evSteal, true
		}
	} else if len(q.comps) == 0 {
		return event{}, 0, false
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
	return top, evComplete, true
}

type worker struct {
	id    int
	color int
	dq    wdeque
	rng   xrand.Rand
	stats *WorkerStats // the worker's element of engine.stats

	// plan is the worker's victim order (core.StealPlan).
	plan []core.StealStep

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
	pages    []*[pageSize]node
	far      map[int64]*[pageSize]node
	bound    int
	sinkKey  core.Key
	evq      eventQueue
	queued   int // entries in all workers' deques together
	done     bool
	makespan int64
	created  int
	// Per-run pools (see carve) that nodes, deque buffers, successor
	// registrations and the keys and groups of regrouped items are cut
	// from, so that none of them is an allocation of its own.
	nodePool  []node
	dequePool []entry
	succPool  []succEdge
	keyPool   []core.Key
	groupPool []group
	// homeSpec is spec's HomeSpec side, nil when homes are colors.
	homeSpec core.HomeSpec
	// ready and the classify results are reusable scratch (the simulator
	// is single-threaded, so one engine-wide buffer of each suffices).
	ready  []core.Key
	gidx   []int32
	gcolor []int
	gcount []int
}

const (
	// pageSize is the node table's page, core's 64 nodes.
	pageShift = 6
	pageSize  = 1 << pageShift
	// maxListedPages caps the pages list at core's 2^21 indexed keys.
	maxListedPages = 1 << 21 / pageSize
	// dequeCap is the capacity a worker's deque gets on its first push, cut
	// from the engine's pool; a deque that outgrows it reallocates on its
	// own.
	dequeCap = 4
)

// Run executes the task graph on the simulated machine and returns virtual
// timing, steal, and locality statistics. Runs are deterministic: the same
// spec, sink, and options produce identical results.
func Run(spec core.CostSpec, sink core.Key, opts Options) (*Result, error) {
	e, err := newEngine(spec, sink, opts)
	if err != nil {
		return nil, err
	}
	return e.run()
}

func newEngine(spec core.CostSpec, sink core.Key, opts Options) (*engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &engine{
		opts:    opts,
		spec:    spec,
		sinkKey: sink,
		evq:     newEventQueue(opts.Workers),
	}
	e.homeSpec, _ = spec.(core.HomeSpec)
	e.bound = core.KeyBoundOf(spec)
	e.pages = make([]*[pageSize]node, min((e.bound+pageSize-1)/pageSize, maxListedPages))
	p := opts.Policy
	e.workers = make([]worker, opts.Workers)
	e.stats = make([]WorkerStats, opts.Workers)
	for i := range e.workers {
		w := &e.workers[i]
		*w = worker{
			id:                i,
			color:             i,
			dq:                wdeque{e: e},
			stats:             &e.stats[i],
			plan:              core.StealPlan(p, opts.Topology, i),
			firstStealPending: p.Colored && p.ForceFirstColoredSteal && i != 0,
		}
		w.rng.SeedWorker(p.Seed, i)
	}
	return e, nil
}

func (e *engine) run() (*Result, error) {
	// Worker 0 seeds the computation with the sink node at t = 0.
	w0 := &e.workers[0]
	sinkNode, _ := e.getOrCreate(e.sinkKey)
	t := e.opts.Cost.NodeOverhead
	w0.stats.BusyTime += e.opts.Cost.NodeOverhead
	if len(sinkNode.preds) == 0 {
		e.startExec(w0, t, sinkNode)
	} else {
		e.push(w0, e.groupKeys(sinkNode, sinkNode.preds))
		e.acquire(w0, t)
	}
	// All other workers begin hunting for work.
	for i := 1; i < len(e.workers); i++ {
		e.evq.pushProbe(e.opts.Cost.StealAttemptCost, i)
	}

	var last int64 // latest event time processed, the partial makespan
	for !e.done {
		ev, kind, ok := e.evq.pop()
		if !ok {
			// Dependence deadlock: nothing executing, nothing stealable,
			// no event to make progress. Report the same typed stall
			// diagnostic as the real engine, naming the nodes that were
			// created but never computed (a cycle's members and their
			// downstream) — or, under SkipUnreachable, degrade exactly
			// as core's error-budget path does: return the partial
			// Result together with a *core.PartialError naming the
			// never-computed nodes as skipped.
			pend := e.pendingKeys()
			if e.opts.SkipUnreachable {
				pe := &core.PartialError{SkippedTotal: len(pend)}
				if len(pend) > core.StallPendingMax {
					pend = pend[:core.StallPendingMax]
				}
				pe.Skipped = pend
				return e.result(last), pe
			}
			se := &core.StallError{Sink: e.sinkKey, PendingTotal: len(pend)}
			if len(pend) > core.StallPendingMax {
				pend = pend[:core.StallPendingMax]
			}
			se.Pending = pend
			return nil, se
		}
		if dl := e.opts.Deadline; dl > 0 && ev.at > dl {
			// The run's virtual-time budget is spent before this event
			// fires: the watchdog mirror. Limit carries the budget's
			// integer value (virtual cycles).
			return nil, &core.TimeoutError{Limit: time.Duration(dl)}
		}
		last = ev.at
		w := &e.workers[ev.wid]
		switch kind {
		case evComplete:
			e.complete(w, ev.at)
		case evSteal:
			e.stealAttempt(w, ev.at)
		}
	}
	return e.result(e.makespan), nil
}

// result gathers the per-worker counters into a Result with the given
// makespan (the sink's completion time, or the last processed event
// time for a degraded run).
func (e *engine) result(makespan int64) *Result {
	for i := range e.workers {
		if w := &e.workers[i]; !w.startedWork {
			w.stats.TimeToFirstWork = makespan
		}
	}
	return &Result{
		Makespan:     makespan,
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
		panic(fmt.Sprintf("sim: key %d outside the spec's declared bound %d", k, e.bound))
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

func (e *engine) getOrCreate(k core.Key) (*node, bool) {
	n := e.lookup(k)
	if n.created {
		return n, false
	}
	preds := e.spec.Predecessors(k)
	n.key = k
	n.color = e.spec.Color(k)
	n.home = e.homeOf(k)
	n.preds = preds
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

// classify sorts keys into one group per distinct spec color, in order of
// first appearance: gidx[i] is keys[i]'s group, gcolor and gcount each
// group's color and size. It returns the number of groups.
func (e *engine) classify(keys []core.Key) int {
	e.gidx, e.gcolor, e.gcount = e.gidx[:0], e.gcolor[:0], e.gcount[:0]
	for _, k := range keys {
		c := e.spec.Color(k)
		g := 0
		for g < len(e.gcolor) && e.gcolor[g] != c {
			g++
		}
		if g == len(e.gcolor) {
			e.gcolor = append(e.gcolor, c)
			e.gcount = append(e.gcount, 0)
		}
		e.gcount[g]++
		e.gidx = append(e.gidx, int32(g))
	}
	return len(e.gcolor)
}

// groupKeys partitions keys by spec color (first-appearance order,
// deterministic) into an item of owner's predecessors or, without an owner,
// of ready nodes. Single-group outcomes use the inline form, and the
// uncolored/one-key form keeps color 0. Ready keys arrive in the engine's
// reusable scratch, so an ownerless item never aliases its input.
func (e *engine) groupKeys(owner *node, keys []core.Key) item {
	ng, color := 1, 0
	if e.opts.Policy.Colored && len(keys) > 1 {
		ng = e.classify(keys)
		color = e.gcolor[0]
	}
	if ng == 1 {
		if owner == nil {
			keys = append(carve(&e.keyPool, len(keys)), keys...)
		}
		return item{owner: owner, single: group{color: color, keys: keys}}
	}
	groups := carve(&e.groupPool, ng)[:ng]
	store := carve(&e.keyPool, len(keys))[:len(keys)]
	for g := range groups {
		n := e.gcount[g]
		groups[g] = group{color: e.gcolor[g], keys: store[:0:n]}
		store = store[n:]
	}
	for i, k := range keys {
		g := &groups[e.gidx[i]]
		g.keys = append(g.keys, k)
	}
	return item{owner: owner, groups: groups}
}

// push mirrors the real engine's mask construction: single-group items
// advertise the group's own color in O(1); multi-group items union their
// groups' colors. Colors outside the worker range are skipped.
func (e *engine) push(w *worker, it item) {
	s := colorset.New(len(e.workers))
	if it.groups == nil {
		if c := it.single.color; c >= 0 && c < len(e.workers) {
			s.Add(c)
		}
	} else {
		for _, g := range it.groups {
			if g.color >= 0 && g.color < len(e.workers) {
				s.Add(g.color)
			}
		}
	}
	w.dq.pushBottom(entry{it: it, colors: s})
}

func containsColor(groups []group, color int) bool {
	for _, g := range groups {
		if g.color == color {
			return true
		}
	}
	return false
}

// interpret is the morphing-continuation interpreter in virtual time: it
// performs the spawn_colors/spawn_nodes splits (pushing stealable
// continuations) and resolves the leaf, returning the node the worker
// should now execute (nil if the leaf only did bookkeeping) and the
// advanced clock.
func (e *engine) interpret(w *worker, t int64, it item) (*node, int64) {
	if it.size() == 0 {
		return nil, t
	}
	if it.groups == nil {
		return e.interpretGroup(w, t, it.owner, it.single)
	}
	groups := it.groups
	colored := e.opts.Policy.Colored
	for len(groups) > 1 {
		mid := len(groups) / 2
		first, second := groups[:mid], groups[mid:]
		if colored && containsColor(second, w.color) && !containsColor(first, w.color) {
			first, second = second, first
		}
		if len(second) == 1 {
			e.push(w, item{owner: it.owner, single: second[0]})
		} else {
			e.push(w, item{owner: it.owner, groups: second})
		}
		groups = first
	}
	return e.interpretGroup(w, t, it.owner, groups[0])
}

// interpretGroup binary-splits a single color group, pushing inline
// single-group continuations, and resolves the final leaf.
func (e *engine) interpretGroup(w *worker, t int64, owner *node, g group) (*node, int64) {
	keys := g.keys
	for len(keys) > 1 {
		mid := len(keys) / 2
		e.push(w, item{owner: owner, single: group{color: g.color, keys: keys[mid:]}})
		keys = keys[:mid]
	}
	if owner == nil {
		return e.lookup(keys[0]), t
	}
	return e.tryInitCompute(w, t, owner, keys[0])
}

// tryInitCompute resolves one predecessor edge of owner, charging creation
// and edge-check overheads.
func (e *engine) tryInitCompute(w *worker, t int64, owner *node, pkey core.Key) (*node, int64) {
	m := e.opts.Cost
	pred, created := e.getOrCreate(pkey)
	if created {
		t += m.NodeOverhead
		w.stats.BusyTime += m.NodeOverhead
		e.addSucc(pred, owner)
		if len(pred.preds) == 0 {
			return pred, t
		}
		e.push(w, e.groupKeys(pred, pred.preds))
		return nil, t
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

// acquire drains the worker's own deque, interpreting items until one
// yields a node to execute; with an empty deque the worker turns thief.
func (e *engine) acquire(w *worker, t int64) {
	for {
		it, ok := w.dq.popBottom()
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
		n, t2 := e.interpret(w, t, it)
		t = t2
		if n != nil {
			e.startExec(w, t, n)
			return
		}
	}
}

func (e *engine) nodeCost(w *worker, n *node) int64 {
	return e.spec.FootprintOf(n.key).Cost(e.opts.Cost, e.opts.Topology, w.color, n.home,
		len(n.preds), func(i int) int { return e.homeOf(n.preds[i]) })
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
	topo := e.opts.Topology
	w.stats.NodesExecuted++
	if n.color == w.color {
		w.stats.OwnColorNodes++
	}
	w.stats.Accesses.Count(topo, w.color, n.home)
	for _, p := range n.preds {
		w.stats.Accesses.Count(topo, w.color, e.homeOf(p))
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

// victimIn picks a random worker of [lo, hi) other than w, which the range
// holds.
func (e *engine) victimIn(w *worker, lo, hi int) *worker {
	v := lo + w.rng.Intn(hi-lo-1)
	if v >= w.id {
		v++
	}
	return &e.workers[v]
}

// stealSucceeded charges the steal-success cost (once, even for a batch —
// that single charge is the amortization batching buys; stealHalf has
// already adopted every batch item after the first into the thief's own
// deque) and continues the thief on the first stolen item.
func (e *engine) stealSucceeded(w *worker, t int64, it item) {
	m := e.opts.Cost
	w.stats.StealsOK++
	t += m.StealSuccessCost
	w.stats.BusyTime += m.StealSuccessCost
	n, t2 := e.interpret(w, t, it)
	if n != nil {
		e.startExec(w, t2, n)
	} else {
		e.acquire(w, t2)
	}
}

// scheduleNextProbe schedules the worker's next steal event after a failed
// probe. If nothing is stealable anywhere, fast-forward to the next
// completion instead of grinding out empty probes (pure
// simulation-efficiency optimization: the probes it skips could not have
// succeeded).
func (e *engine) scheduleNextProbe(w *worker, t int64) {
	m := e.opts.Cost
	next := t + m.StealAttemptCost
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

// stealAttempt performs one probe of the worker's steal plan (the
// enforced first colored steal while it is pending); the attempt cost was
// charged when the event was scheduled. Probe by probe, stealStep and
// stealUsed walk the plan's steps in order and wrap after the last.
func (e *engine) stealAttempt(w *worker, t int64) {
	if e.done {
		return
	}
	p := &e.opts.Policy
	s := &w.plan[w.stealStep]
	if w.firstStealPending {
		// The enforcement probes the plan's global colored step, unbatched.
		first := w.plan[len(w.plan)-2]
		first.Batch = 0
		s = &first
	}
	v := e.victimIn(w, s.Lo, s.Hi)
	colored := s.Filter != nil
	batch := s.Batch > 0 && !e.opts.Topology.SameDomain(v.id, w.id)
	w.stats.StealAttempts++
	w.stats.TierAttempts[s.Tier]++
	if colored {
		w.stats.ColoredAttempts++
	}
	var it item
	stolen := 0
	if top := v.dq.top(); top != nil {
		switch {
		case colored && !top.colors.Intersects(*s.Filter):
			w.stats.ColoredMisses++
		case batch:
			it, stolen = v.dq.stealHalf(s.Batch, &w.dq)
		default:
			it, _ = v.dq.stealTop()
			stolen = 1
		}
	}

	switch {
	case w.firstStealPending:
		w.stats.FirstStealChecks++
		if stolen > 0 {
			w.firstStealPending = false
			w.stats.FirstStealForcedOK = true
		} else if w.stats.FirstStealChecks >=
			int64(p.FirstStealMaxRounds)*int64(len(e.workers)-1) {
			// Give up the enforcement (bounded, see DESIGN.md §4).
			w.firstStealPending = false
		}
	case stolen > 0 && (p.Hierarchical || !colored):
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

	if stolen == 0 {
		e.scheduleNextProbe(w, t)
		return
	}
	w.stats.TierSteals[s.Tier]++
	if colored {
		w.stats.ColoredStealsOK++
	}
	if batch {
		w.stats.BatchOps++
		w.stats.BatchItems += int64(stolen)
	}
	e.stealSucceeded(w, t, it)
}
