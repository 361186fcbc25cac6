package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nabbitc/internal/deque"
	"nabbitc/internal/numa"
	"nabbitc/internal/xrand"
)

// Engine is a persistent, multi-tenant instance of the real parallel
// scheduler: P worker goroutines, each with a work-stealing deque of
// morphing-continuation items, plus a pool of node tables and the one pool
// of node pages they draw from. The
// engine is built once (NewEngine) and executes any number of task
// graphs, reusing the worker pool, the deques, and the node tables
// across runs — the iterative-workload shape (PageRank power iterations,
// stencil time stepping) where per-run construction cost would otherwise
// dominate, and the service shape where many small graphs are in flight
// at once. Idle workers park on a per-worker notify slot instead of
// spinning, and a goroutine in Ticket.Wait runs a parked worker's loop
// itself instead of sleeping (see doc.go's parking design note).
//
// Graphs enter through two front doors:
//
//   - Submit/Wait: admit a graph (subject to Options.MaxInflight) and
//     return a Ticket immediately; any number of graphs may be in flight
//     concurrently, from any goroutines.
//   - Execute: run one graph with exclusive occupancy of the pool and
//     full per-worker statistics. Concurrent Execute calls are safe and
//     simply serialize (they also serialize against Close).
//
// Close releases the worker goroutines after draining in-flight graphs —
// every NewEngine must be paired with a Close.
type Engine struct {
	// The first block is everything the per-task path reads from the
	// engine, and nothing a run writes: it stays shared-clean in every
	// worker's cache. The words the engine does write while graphs run —
	// the parked count, the admission state, the deferred wake — sit
	// below, each group a full line away from this block, from each
	// other and from the end of the struct (pinned by
	// TestEngineWrittenWordsIsolated).
	//
	// sv is the spec's read-mostly face (HomeSpec resolved, colour →
	// domain table) that node creation and the locality accounting
	// consult. fspec is the spec's fallible face, resolved once at
	// construction (nil when the spec does not implement it): with fspec
	// set the workers call ComputeErr instead of Compute and retry failures
	// in place under opts.Retry.
	sv         *specView
	fspec      FallibleSpec
	onComplete func(worker int, k Key) // opts.OnComplete
	workers    []*worker
	colored    bool // opts.Policy.Colored
	// maxSearch caps how many workers hunt at once: max(1, Workers/2).
	maxSearch int32
	// yield, when set, is called at the park protocol's hand-over points
	// (see yieldPoint). Tests install it right after NewEngine, while every
	// worker is parked, to drive interleavings without sleeping.
	yield func(yieldPoint, *worker)
	// closing gates Submit as soon as Close begins; closeFlag tells
	// workers to exit once Close has drained the in-flight graphs. Both
	// are written once per engine lifetime.
	closing   atomic.Bool
	closeFlag atomic.Bool

	opts Options
	// pool is the engine-wide page pool and stamp clock; every table the
	// engine builds draws its pages from it.
	pool *pagePool

	// pending is the FIFO hand-off of admitted-but-unseeded graphs to the
	// workers, of capacity Options.MaxInflight; every live pending graph
	// holds an admission slot (see takeSlotLocked), so a send during
	// admission never blocks (see admitLocked).
	pending chan *graphRun
	// closedCh unblocks Submit calls parked in blocking admission when
	// the engine closes.
	closedCh chan struct{}

	mu     sync.Mutex // serializes Execute and Close
	closed bool       // guarded by mu

	// startWG releases NewEngine once every worker has announced its
	// initial park (so the first wake tokens cannot be lost); exitWG
	// tracks worker goroutine exit for Close.
	startWG sync.WaitGroup
	exitWG  sync.WaitGroup

	_ [cacheLine]byte

	// parked counts currently-parked workers. A wake decrements it on
	// the waker's side (after winning the park CAS), so parked == P
	// implies no wake token is in flight — the quiet state Execute's
	// stats reset/gather and the stall sweep rely on. searching counts the
	// workers hunting for work and every wake from its waker's CAS until the
	// woken worker finds work or parks again: a producer that reads it
	// non-zero leaves the wake to whoever holds the count (see doc.go's
	// parking design note). Every push reads both (signal), so they share
	// their line with nothing written per task or per graph.
	parked    atomic.Int32
	searching atomic.Int32

	_ [cacheLine]byte

	// The admission state, written once or twice per graph. nextID stamps
	// each admitted graph with a unique id. stateMu guards the run
	// registry and table pool, and makes admission (register + pending
	// send) atomic with respect to the stall sweep and Execute's
	// quiescence checks.
	nextID  atomic.Uint64
	stateMu sync.Mutex
	runs    []*graphRun  // in-flight graphs, unordered (guarded by stateMu)
	tables  []*nodeArena // idle node tables (guarded by stateMu)
	// inflight counts the admission slots held, at most
	// Options.MaxInflight, and slotWaiters queues the wake-up channels of
	// admissions waiting for one, oldest first (both guarded by stateMu;
	// see takeSlotLocked).
	inflight    int
	slotWaiters []chan struct{}
	// deadTables quarantines the node tables of failed runs until the
	// pool is provably quiet (guarded by stateMu; see
	// reclaimTablesLocked); quarantined mirrors its length atomically so
	// the park-site reclaim trigger can read it without stateMu.
	deadTables  []*nodeArena
	quarantined atomic.Int32
	// active mirrors len(runs) atomically so the stall sweep and
	// quiescence checks can read it without stateMu.
	active atomic.Int32

	_ [cacheLine]byte

	// The deferred wake, on a line of its own: signal and lazy
	// publication's hold test (mayHold) read deferUntil, and with graphs
	// in flight the admission words above are written by every Submit and
	// every completion. Only an admission into an idle engine, the
	// retirement of its deferral and the timer write here.
	//
	// deferUntil is the deferred wake: zero when none is armed, otherwise
	// the instant (see now) before which the graph last admitted into a
	// fully idle engine is left to its waiter. It is a word of its own that
	// signal consults: armed under stateMu by that admission (see submit),
	// retired by a store of zero (see wakeNow), and backed by deferTimer.
	// The timer is made by the first admission that may defer (under
	// stateMu): an engine that only ever Executes has none, so its idle Ps
	// sleep without a timer to watch. timerSet says a firing of it is
	// pending: whoever finds it clear sets it and the timer, and the firing
	// clears it before it reads the deadline (see armTimer).
	deferUntil atomic.Int64
	timerSet   atomic.Bool
	deferTimer *time.Timer
	epoch      time.Time

	// The deferral's words end the struct: the padding keeps whatever the
	// allocator puts next off their line.
	_ [cacheLine]byte
}

// maxIndexedKeys is the largest declared key bound whose keys get records
// (see specView): ~2M keys, 16 MB of records per engine, built at
// construction — well past the paper's 102400-node graphs. Past it, as
// without a bound, every key is its own slot.
const maxIndexedKeys = 1 << 21

// dequeInit is every worker deque's first capacity. A deque holds the
// frontier of open spawns, whose depth follows their nesting and fan-in,
// not the key space; a deeper frontier doubles the ring under its lock
// (counted in WorkerStats.DequeGrows), and the ring keeps that size for
// the engine's life, so growth is a first-run cost.
const dequeInit = 64

// newTableShared builds what all node tables of one engine share: the
// spec view, with a record per key when the spec's bound allows, and the
// page pool the tables draw from.
func newTableShared(spec Spec, topo numa.Topology) (*specView, *pagePool) {
	sv := newSpecView(spec, topo)
	if b := KeyBoundOf(spec); b > 0 && b <= maxIndexedKeys {
		sv.indexKeys(b)
	}
	return sv, newPagePool(topo.Workers)
}

// spinBeforePark is the bounded-spin budget: consecutive unsuccessful
// full probe sweeps before an idle worker gives up spinning and parks on
// its notify slot. Large enough that momentary troughs in stealable work
// stay in the cheap spin regime, small enough that a genuinely idle
// worker burns microseconds — not wall-clock — before sleeping.
const spinBeforePark = 64

// yieldBeforePark is the budget of a worker that runs dry while enough
// others are searching, and so may not search itself: yields of its P, each
// followed by a poll of the pending queue, before it parks. What
// dried it up is often a submitter that a worker has just readied by
// completing a graph and that cannot run — and submit more — until a worker
// lets go of its P; a few yields let it, where parking at once costs the
// worker a wake latency when those graphs arrive microseconds later (128
// graphs in flight: parks per graph 0.008 at 0, 0.0027 at 1, 0.001 at 4).
const yieldBeforePark = 4

// deferDelay is how long the wake for a graph admitted into a fully idle
// engine is held back (see submit): about what a caller needs to reach
// Ticket.Wait and finish a small graph itself. It is the deadline everybody
// who looks at the engine honours — a running worker's stride poll, anyone
// about to sleep on the engine — and the least the backstop timer waits.
// The most is the Go runtime's to say: with every P idle its timers are
// served from a netpoll sleep of 1 ms granularity. So the contract for a
// Submit into an idle engine whose caller neither waits, nor asks for Done,
// nor gives the engine other work is a start within about a millisecond,
// not within deferDelay: BenchmarkSubmitNeverWaited measures 1.0-1.1 ms from
// Submit to the sink of a 17-node graph for a caller asleep on a channel and
// 1.4-1.6 ms for one that spins, against 9-14 us and 110-190 us when the
// admission woke a worker at once. README states it, and names Done as the
// call that asks for the wake now.
const deferDelay = 20 * time.Microsecond

// seedStride bounds how many consecutive local items a worker runs
// before polling the pending queue: with every worker busy on admitted
// graphs, a newly submitted graph still gets seeded within seedStride
// leaf boundaries — each popped item, and each key a worker runs in turn
// from a range it holds (see runGroup) — the round-robin fairness bound
// across submissions, measured in tasks.
const seedStride = 64

// worker is one scheduler goroutine's state. Everything a worker writes
// per task — its rng, the grouping scratch, its statistics, the loop
// counters — lives in this one block, bracketed by a line of padding on
// each side so that no word of it can share a cache line with another
// worker's block, wherever the allocator places the two (pinned by
// TestWorkerScratchCacheLineIsolated). The few words other goroutines
// write — the park handshake — come last, a line away from the owner's
// own.
type worker struct {
	_ [cacheLine]byte

	id     int   // == color
	color  int32 // id, in the width node colours are stored in
	domain int32 // this worker's NUMA domain
	e      *Engine
	dq     *deque.Mutex[item]

	// plan is this worker's victim order (see StealPlan; nil for a lone
	// worker, which has no victims) and stealBuf the scratch every steal
	// appends into, sized to the largest batch the plan takes.
	plan     []StealStep
	stealBuf []deque.Entry[item]

	rng   xrand.Rand
	stats WorkerStats

	// grp and stage are owner-only scratch reused across runs so the
	// spawn/notify hot paths allocate only what escapes into deque items:
	// the colour grouping, and the staging area of groupNodes' in-place
	// successor scatter.
	grp      Grouper
	stage    []*Node
	stageBuf [8]*Node

	// idleSince is the lazily started idle clock: zero until a steal
	// probe fails, so a findWork call whose first probe succeeds never
	// reads the clock.
	idleSince time.Time

	firstStealPending bool
	startedWork       bool

	// spins counts consecutive unsuccessful probe sweeps since the last
	// acquired work or park; at spinBeforePark the worker parks.
	spins int
	// streak counts leaf boundaries since the last pending-queue poll:
	// locally popped items, and keys run in turn from a held range; at
	// seedStride the worker polls (fairness).
	streak int
	// ranges counts the one-colour ranges this worker has opened; a key
	// during which it moved was not flat (see runGroup).
	ranges int64
	// searching reports that this worker holds one count of
	// Engine.searching. Like the rest of this block it belongs to whoever
	// owns the worker: its goroutine, or between a parkState 1→0 CAS and the
	// hand-over that follows (token or hand-back), the waker or guest.
	searching bool
	// guest is the run a goroutine in Ticket.Wait is running this worker's
	// loop for, nil on the worker's own goroutine. A guest cannot sleep on
	// the notify slot: where the worker would park it sets parkDue instead
	// and the loop returns the worker to its goroutine (see handBack).
	guest   *graphRun
	parkDue bool
	// curKey names the node this worker is currently processing — a
	// plain owner-written field kept fresh so the rescue boundary can
	// attribute a recovered panic to the node whose spec callback blew
	// up (see rescue).
	curKey Key
	// lastGrows snapshots the deque's cumulative growth count when
	// Execute resets this worker, so per-run DequeGrows is a delta.
	// Snapshotting at run start (not run end) means a failed run can
	// never leak its growths into the next run's delta.
	lastGrows int64

	_ [cacheLine]byte

	// parkState (0 running, 1 parked) plus the one-token parkCh form the
	// notify slot. A waker that CASes parkState 1→0 owns the wake and
	// sends exactly one token; the parked worker consumes exactly one
	// token per announced park, so tokens can never accumulate.
	parkState atomic.Int32
	parkCh    chan struct{}

	_ [cacheLine]byte
}

// NewEngine builds a persistent engine for the spec: the worker pool, the
// per-worker deques, and the first node-table instance, all reused by
// every subsequent Execute/Submit. The workers are started immediately
// and park until the first graph arrives. Callers must Close the engine
// to release them.
func NewEngine(spec Spec, opts Options) (*Engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sv, pool := newTableShared(spec, opts.Topology)
	e := &Engine{
		sv:         sv,
		pool:       pool,
		onComplete: opts.OnComplete,
		colored:    opts.Policy.Colored,
		maxSearch:  max(1, int32(opts.Workers/2)),
		epoch:      time.Now(),
		opts:       opts,
		pending:    make(chan *graphRun, opts.MaxInflight),
		closedCh:   make(chan struct{}),
	}
	e.fspec, _ = spec.(FallibleSpec)
	// Build the first table eagerly: spec problems surface here rather
	// than on some later Submit, and the single-tenant Execute loop
	// reuses this one instance forever.
	e.tables = []*nodeArena{newNodeArena(sv, pool)}
	p := opts.Policy
	e.workers = make([]*worker, opts.Workers)
	for i := range e.workers {
		w := &worker{
			id:     i,
			color:  int32(i),
			domain: e.sv.domainOf(int32(i)),
			e:      e,
			dq:     deque.NewMutex[item](dequeInit),
			parkCh: make(chan struct{}, 1),
		}
		if opts.Workers > 1 {
			w.plan = StealPlan(p, opts.Topology, i)
			w.stealBuf = make([]deque.Entry[item], 0, StealBatch)
		}
		w.rng.SeedWorker(p.Seed, i)
		w.grp.Init(opts.Workers)
		w.stage = w.stageBuf[:0]
		e.workers[i] = w
	}
	// NewEngine returns only after every worker has announced its initial
	// park: the first admission's wake CAS would fail against a worker
	// that had not yet registered, stranding it asleep.
	e.startWG.Add(opts.Workers)
	e.exitWG.Add(opts.Workers)
	for _, w := range e.workers {
		go w.main()
	}
	e.startWG.Wait()
	return e, nil
}

// Execute runs the task graph whose completion is marked by the sink task,
// creating nodes on demand from the sink's (transitive) predecessors, and
// returns scheduling statistics for this run — including the per-worker
// counters, which Submit-mode stats cannot attribute. Every task
// reachable from the sink is computed exactly once, and a task computes
// only after all its predecessors. The graph must be acyclic (see
// TopoOrder); a graph whose sink can never compute returns an error and
// leaves the engine reusable. Exactly one of the two results is non-nil.
//
// Execute takes exclusive occupancy: it waits for in-flight Submit
// graphs to drain, then runs alone so the per-worker statistics describe
// exactly this graph. Concurrent Execute calls are safe — they serialize
// on an internal lock (and against Close), each running in turn.
//
// Repeated calls reuse the engine's workers, deques, and node table: the
// table retires the previous run's nodes by taking a new epoch stamp
// (no reallocation, no per-slot clearing) and, asked for the same sink
// again, keeps its pages where they were. Specs may mutate state between calls (e.g. advance an
// iteration counter); the engine guarantees no worker touches spec or
// graph state across the call boundary.
//
// A repeat of the sink the table served last, after a run that
// computed every node, is replayed rather than discovered: before the run
// starts, on the calling goroutine, the table calls Predecessors once per
// node of the last run, and if each returns the very slice it returned
// then, starts the run from that run's sources (Stats.Replayed; see
// doc.go's replay note). The graph is then taken to have the shape it
// had: state the tasks read may change between calls,
// returned predecessor slices may not (see Spec.Predecessors). Anything
// else — another sink, a failed run before, a spec that builds
// its slices per call — is discovered from the sink as always.
func (e *Engine) Execute(sink Key) (*Stats, error) {
	return e.execute(nil, sink)
}

// ExecuteCtx is Execute with caller-controlled cancellation: ctx (which
// must be non-nil) aborts the admission wait and, once the run is
// admitted, the run itself — expiry marks the graph dead (workers
// discard its remaining items), releases its slot, and returns an error
// matching errors.Is(err, ErrCanceled) that also wraps ctx.Err(). The
// engine stays reusable after a canceled run.
func (e *Engine) ExecuteCtx(ctx context.Context, sink Key) (*Stats, error) {
	return e.execute(ctx, sink)
}

// execute is the shared exclusive-occupancy path; ctx is nil for plain
// Execute, keeping the no-ctx path free of watcher goroutines.
func (e *Engine) execute(ctx context.Context, sink Key) (*Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, cancelErr(0, err)
		}
	}
	// Execute admission always blocks. Holding e.mu across the slot wait
	// (and the run wait below) is the exclusivity contract: concurrent
	// Execute/Close serialize on e.mu while Submit traffic proceeds under
	// stateMu.
	e.stateMu.Lock()
	if _, err := e.takeSlotLocked(ctx); err != nil {
		return nil, err
	}
	e.stateMu.Unlock()
	r := &graphRun{id: e.nextID.Add(1), sink: sink}

	// Wait for the pool to go quiet (no graphs in flight, every worker
	// parked, no wake token in flight), then reset the per-run worker
	// state and admit the graph in the same critical section: a
	// concurrent Submit cannot interleave its registration (it needs
	// stateMu) and no worker can be touching its stats.
	e.lockQuiet()
	pol := e.opts.Policy
	for i, w := range e.workers {
		w.stats = WorkerStats{}
		w.startedWork = false
		w.idleSince = time.Time{}
		w.spins = 0
		w.streak = 0
		w.rng.SeedWorker(pol.Seed, i)
		// The seeding worker starts with the root work, so its first
		// acquisition is not a steal.
		w.firstStealPending = pol.Colored && pol.ForceFirstColoredSteal && i != 0
		w.lastGrows = w.dq.Grows()
	}
	r.start = e.now() // after the quiesce: Elapsed is the run, not the wait for the pool
	e.admitLocked(r, true)
	if ctx != nil {
		e.watchCtxLocked(ctx, r)
	}
	e.stateMu.Unlock()
	e.wakeOne()
	// The run wait keeps e.mu held: Execute is exclusive-occupancy, and
	// workers never take e.mu, so the hold cannot deadlock the run.
	<-e.doneChan(r) //nabbit:lockheld-ok Execute holds e.mu by design

	// A failed run has no per-worker stats to gather, and waiting for
	// quiescence here could block on a canceled graph's still-in-flight
	// Compute; return right away. The next execute/Close quiesces before
	// touching shared state anyway.
	if r.stats == nil {
		return nil, r.err
	}
	// Quiesce again before gathering: the finishing worker unwinds and
	// parks after closing done, and stats must not be read mid-write.
	e.lockQuiet()
	defer e.stateMu.Unlock()
	st := r.stats
	st.Workers = make([]WorkerStats, len(e.workers))
	for i, w := range e.workers {
		if !w.startedWork {
			w.stats.TimeToFirstWork = st.Elapsed
		}
		w.stats.DequeGrows = w.dq.Grows() - w.lastGrows
		st.Workers[i] = w.stats
	}
	return st, nil
}

// quietLocked reports, for a caller holding stateMu, that no worker runs
// and nothing already in motion can wake one: nothing pending, every
// worker parked (which, with the waker-side parked decrement, implies no
// wake token is in flight either), and every deque empty. It is the one
// quiet predicate: the stall sweep and lockQuiet both ask it.
// The deques are asked under their locks: quiet is where worker state is
// reset and tables are recycled, so it takes exact lengths, not the flags
// anyWork reads.
func (e *Engine) quietLocked() bool {
	if e.parked.Load() != int32(len(e.workers)) || len(e.pending) > 0 {
		return false
	}
	for _, w := range e.workers {
		if w.dq.Len() > 0 {
			return false
		}
	}
	return true
}

// lockQuiet acquires stateMu in the engine's quiet state: no graph in
// flight, and quietLocked.
func (e *Engine) lockQuiet() {
	e.lockWhen(func() bool { return e.active.Load() == 0 && e.quietLocked() })
	// Quiet implies no worker can be touching a failed run's nodes: recycle
	// any quarantined tables before the caller checks one out.
	e.reclaimTablesLocked()
}

// lockWhen acquires stateMu at a moment cond, asked under it, holds. Each
// try first calls wakeNow: the pool cannot drain a graph whose wake is
// still held back.
func (e *Engine) lockWhen(cond func() bool) {
	for i := 0; ; i++ {
		e.wakeNow()
		e.stateMu.Lock()
		if cond() {
			return
		}
		e.stateMu.Unlock()
		if i < 256 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// Close drains in-flight graphs, then wakes and releases the worker
// goroutines. Graphs that can never finish are failed by the stall sweep
// rather than leaked. Close is idempotent and returns only after every
// worker has exited; Execute and Submit after Close error.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.closing.Store(true)
	close(e.closedCh)
	// Drain: workers keep running (closeFlag is still down) until every
	// admitted graph has finished or been failed by the stall sweep. The
	// wait holds e.mu, the Close/Execute exclusivity lock, as Execute's
	// quiesce does.
	e.lockWhen(func() bool { return e.active.Load() == 0 && len(e.pending) == 0 })
	e.stateMu.Unlock()
	e.closeFlag.Store(true)
	e.wakeAll()
	e.exitWG.Wait()
	if e.deferTimer != nil {
		e.deferTimer.Stop()
	}
	return nil
}

// Run executes the task graph under a single-use engine: one NewEngine,
// one Execute, one Close. Iterative workloads that execute many graphs
// should hold an Engine instead and amortize the construction.
func Run(spec Spec, sink Key, opts Options) (*Stats, error) {
	e, err := NewEngine(spec, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Execute(sink)
}

// anyWork reports whether any worker's deque holds a stealable item, from
// each deque's non-empty flag (deque.Mutex.NonEmpty), so it takes no lock.
// Its callers are the park re-check, the last searcher's re-issue and
// wakeNow, each of which read the flags after a sequentially consistent
// store of their own (the announcement, the count, the retired deadline)
// against a push that stores the flag before it reads parked and
// searching: one side always sees the other (see doc.go's parking note).
func (e *Engine) anyWork() bool {
	for _, w := range e.workers {
		if w.dq.NonEmpty() {
			return true
		}
	}
	return false
}

// hasWork reports whether anything is waiting for a worker: a graph to
// seed or a stealable item.
func (e *Engine) hasWork() bool {
	return len(e.pending) > 0 || e.anyWork()
}

// yieldPoint names a hand-over point of the park protocol for the
// test-only Engine.yield hook.
type yieldPoint int

const (
	yieldWoken     yieldPoint = iota // a waker won the park CAS; its token is not sent yet
	yieldBorrowed                    // a guest won the park CAS; the run is not re-checked yet
	yieldAnnounced                   // a park (or hand-back) is announced; its re-check has not run yet
	yieldArmed                       // an admission published a deferred wake; its timer is not set yet
	yieldSetTimer                    // no firing of the deferral's timer was pending; it is about to be set
	yieldTimer                       // the deferred wake's timer fired; it has read nothing yet
	yieldResumed                     // a parked worker took its token; it has not looked for work yet
)

func (e *Engine) at(p yieldPoint, w *worker) {
	if e.yield != nil {
		e.yield(p, w)
	}
}

// signal is the one place a wake for newly published work is decided, and
// every deque push calls it once the item is stealable (push, and probe's
// batch adoption): wake one parked worker unless somebody already owes
// that wake — a hunting worker or a wake in flight (the searching count),
// or the deferred wake while it is armed. The common cases (nobody parked,
// or somebody searching) are two atomic loads on one line.
func (e *Engine) signal() {
	if e.parked.Load() != 0 && e.searching.Load() == 0 && e.deferUntil.Load() == 0 {
		e.wakeOne()
	}
}

// wakeNow retires the deferred wake, armed or not, and signals for whatever
// is waiting for a worker. It is the one call for everybody who must not
// wait the deferral out: a producer that is not the idle engine's own
// admission (a further admission), anybody about to sleep on the engine
// rather than run its graphs (Done, a Wait that cannot borrow,
// Execute, Close), and whoever finds the deadline passed (the timer, a
// running worker's stride poll). Retiring is a plain store of zero, so any
// number of these may race each other and an arming admission: the store
// comes before the look at the queues here and after the publication there,
// so a deferral is never lost without its graph being seen.
func (e *Engine) wakeNow() {
	if e.deferUntil.Load() != 0 {
		e.deferUntil.Store(0)
	}
	if e.hasWork() {
		e.signal()
	}
}

// now is the engine's clock, nanoseconds since epoch: a monotonic read
// alone (time.Since of a time with a monotonic reading), no wall clock. An
// admission reads it once, for its deadline and for the run's start.
func (e *Engine) now() int64 {
	return int64(time.Since(e.epoch))
}

// deferredDue reports whether a deferred wake is armed and past its
// deadline.
func (e *Engine) deferredDue() bool {
	d := e.deferUntil.Load()
	return d != 0 && e.now() >= d
}

// armTimer sets the deferral's timer to fire after delay unless a firing is
// already pending, which then answers for the deadline just published: it
// clears timerSet before it reads the deadline, so whoever found the flag
// set had published before that read. In a Submit→Wait loop the timer is
// therefore set about once per firing, not once per admission.
func (e *Engine) armTimer(delay time.Duration) {
	if !e.timerSet.Swap(true) {
		e.at(yieldSetTimer, nil)
		e.deferTimer.Reset(delay)
	}
}

// deferredWake is deferTimer's callback, the backstop that makes liveness
// independent of everybody else who calls wakeNow: every arming publishes
// its deadline before it looks for a pending firing (armTimer), and a
// firing that finds a deadline still ahead (it moved since) sets the timer
// again for the remainder.
func (e *Engine) deferredWake() {
	e.at(yieldTimer, nil)
	e.timerSet.Store(false)
	d := e.deferUntil.Load()
	if d == 0 {
		return
	}
	if rem := d - e.now(); rem > 0 {
		e.armTimer(time.Duration(rem))
		return
	}
	e.wakeNow()
}

func (e *Engine) wakeOne() {
	for _, w := range e.workers {
		if w.wake() {
			return
		}
	}
}

func (e *Engine) wakeAll() {
	for _, w := range e.workers {
		w.wake()
	}
}

// wake delivers one token to the worker if it is parked. Winning the CAS
// makes this caller the park's sole waker, so the one-slot channel send
// can never block. The waker also retires the worker's parked count and
// takes a searching count on its behalf: from the instant the CAS wins the
// worker is committed to running and looking for work, keeping parked == P
// equivalent to "no token in flight" is what lets Execute treat the
// all-parked state as fully quiescent, and counting the search from here
// rather than from when the sleeper resumes is what stops every producer
// in between from waking a worker of its own.
func (w *worker) wake() bool {
	if !w.parkState.CompareAndSwap(1, 0) {
		return false
	}
	e := w.e
	e.parked.Add(-1)
	w.startSearch()
	e.at(yieldWoken, w)
	w.parkCh <- struct{}{}
	return true
}

// announcePark publishes the worker as parked and reports whether the park
// must be abandoned. The protocol is announce → re-check → block: the
// re-check runs only after the announcement is visible, so a producer
// either sees the announcement (and delivers a token) or published its
// work before the re-check (and the park is abandoned) — no lost wakeups.
// recheckWork is false for a worker that parks without having searched
// because enough others are searching: they, not it, owe the wake for
// whatever is there, and re-checking would send it straight back here.
//
// Every announcement is also a stall-sweep site: if it made the whole pool
// parked while graphs are still registered, no worker can ever make
// progress on them again, and the sweep fails them (see failStalled).
//
// The caller owns the worker up to the announcement and nothing of it
// afterwards: a waker or a guest may take it over at once.
func (w *worker) announcePark(recheckWork bool) bool {
	e := w.e
	w.parkState.Store(1)
	e.parked.Add(1)
	e.at(yieldAnnounced, w)
	if e.parked.Load() == int32(len(e.workers)) &&
		(e.active.Load() > 0 || e.quarantined.Load() > 0) {
		e.failStalled()
	}
	return e.closeFlag.Load() || recheckWork && e.hasWork()
}

// park puts the worker to sleep on its notify slot until a wake token
// arrives, giving up its searching count first: the re-check that follows
// the announcement covers anything a producer left to that count. If a
// waker wins the race against an abandoning parker, the parker consumes
// the in-flight token anyway so it cannot leak into a later park.
// announced, when non-nil, runs right after the announcement (the
// NewEngine start barrier). A guest does not park: it flags the loop to
// return, and its hand-back is the announcement.
func (w *worker) park(recheckWork bool, announced func()) {
	e := w.e
	w.endSearch()
	if w.guest != nil {
		w.parkDue = true
		return
	}
	w.stats.Parks++
	abandon := w.announcePark(recheckWork)
	if announced != nil {
		announced()
	}
	if abandon && w.parkState.CompareAndSwap(1, 0) {
		e.parked.Add(-1)
		w.stats.Parks--
		return
	}
	// Not abandoning, or lost to a concurrent waker whose token is in
	// flight (it already retired our parked count): sleep, or consume it.
	<-w.parkCh
	w.stats.Wakes++
	e.at(yieldResumed, w)
}

// borrow takes over a parked worker for a goroutine waiting on r: it wins
// the worker's park CAS as a waker would, but sends no token — the
// worker's goroutine stays asleep on its notify slot while the guest runs
// the worker's loop in its place. The run is re-checked after the CAS and
// before the worker is touched: a live run keeps the engine from going
// quiet, which is what entitles the guest to the owner's fields (Execute
// resets them only in the quiet state); a run that finished in between
// gets the worker parked again untouched.
func (e *Engine) borrow(r *graphRun) *worker {
	if e.parked.Load() == 0 {
		return nil
	}
	for _, w := range e.workers {
		if !w.parkState.CompareAndSwap(1, 0) {
			continue
		}
		e.parked.Add(-1)
		e.at(yieldBorrowed, w)
		if r.state.Load() != runLive {
			w.repark()
			return nil
		}
		w.startSearch()
		w.guest = r
		return w
	}
	return nil
}

// handBack ends a guest's tenure: it clears the guest's marks and performs
// the park announcement on the sleeping goroutine's behalf. It reports
// whether the guest left because the worker ran out of work (rather than
// because its run completed).
func (w *worker) handBack() (idle bool) {
	idle = w.parkDue
	w.guest, w.parkDue = nil, false
	w.endSearch()
	w.repark()
	return idle
}

// repark is park for somebody who is not the worker's goroutine: announce,
// run the stall-sweep check and the full re-check, and where the goroutine
// itself would have abandoned the park, wake it.
func (w *worker) repark() {
	if w.announcePark(true) {
		w.wake()
	}
}

// main is the persistent worker goroutine.
func (w *worker) main() {
	e := w.e
	defer e.exitWG.Done()
	// Initial park: announce through the start barrier so NewEngine
	// returns only once this worker's notify slot is live.
	w.park(false, e.startWG.Done)
	w.loop()
}

// loop is the worker loop: seed pending graphs, drain the local deque,
// steal, park when idle. It has two exits. On the worker's own goroutine it
// runs until the engine closes. Under a guest (w.guest set, see
// Ticket.Wait) it also returns once the guest's run has completed or the
// worker would park; the guest then hands the worker back.
func (w *worker) loop() {
	e := w.e
	for !e.closeFlag.Load() {
		if g := w.guest; g != nil && (w.parkDue || g.state.Load() != runLive) {
			return
		}
		if w.streak >= seedStride {
			w.streak = 0
			if e.deferredDue() {
				e.wakeNow()
			}
			if w.trySeed() {
				continue
			}
		}
		if ent, ok := w.dq.PopBottom(); ok {
			w.streak++
			w.exec(ent.Value)
			continue
		}
		w.streak = 0
		if w.trySeed() {
			continue
		}
		if !w.searching {
			if e.searching.Load() >= e.maxSearch {
				// Enough others are searching: no hunting, only a few
				// yields, polling this worker's own sources in between.
				if w.spins < yieldBeforePark {
					w.spins++
					runtime.Gosched()
					continue
				}
				w.spins = 0
				w.park(false, nil)
				continue
			}
			w.startSearch()
		}
		if it, ok := w.findWork(); ok {
			w.exec(it)
		}
	}
}

// startSearch takes a searching count for the worker; endSearch gives it up
// without owing anybody a wake (the worker found nothing — see stopSearching
// for the other way out). Both are for whoever owns the worker just then.
func (w *worker) startSearch() {
	w.searching = true
	w.e.searching.Add(1)
}

func (w *worker) endSearch() {
	if w.searching {
		w.searching = false
		w.e.searching.Add(-1)
	}
}

// gotWork notes that the worker acquired something to run, ending its
// search if it was on one.
//
//nabbit:noalloc
func (w *worker) gotWork(stolen bool) {
	w.spins = 0
	if w.searching {
		w.stopSearching(stolen)
	}
}

// stopSearching gives up the worker's searching count on finding work. The
// last searcher to stop re-issues the wake producers were leaving to it if
// anything is left for another worker: always after a steal (the victim
// pushed those items before this worker took one, so no push is coming to
// signal for the rest), otherwise only if work is visible — a freshly
// seeded graph signals for itself with its first push.
func (w *worker) stopSearching(stolen bool) {
	w.searching = false
	e := w.e
	if e.searching.Add(-1) == 0 && (stolen || e.hasWork()) {
		e.signal()
	}
}

// bail reports whether the worker should abandon its current hunt and
// return to the main loop: the engine is closing, or a pending graph is
// waiting to be seeded (which beats stealing — it is guaranteed work).
func (w *worker) bail() bool {
	e := w.e
	return e.closeFlag.Load() || len(e.pending) > 0
}

// trySeed polls the pending queue and, on a hit, roots the graph: create
// its sink node and start resolving predecessors. A graph canceled
// before any worker reached it is simply discarded here — its failRun
// already did the cleanup (slot, registry, done), and draining the stale
// pending entry is all that remains.
func (w *worker) trySeed() bool {
	select {
	case r := <-w.e.pending:
		w.gotWork(false)
		if r.state.Load() != runLive {
			return true
		}
		w.markStarted(r)
		w.seed(r)
		return true
	default:
		return false
	}
}

// seed roots a just-admitted graph inside its failure boundary. A replayed
// run starts at the other end: its table armed every node of the last run
// and handed out a root whose successors are that run's sources, all ready,
// so the run is the notify cascade from them and creates nothing. Otherwise
// the run discovers its graph from the sink, which must be new — each graph
// owns a freshly reset table, so a pre-existing sink means the reset
// protocol broke (the panic fails only this graph).
func (w *worker) seed(r *graphRun) {
	defer w.rescue(r)
	w.curKey = r.sink
	if root := r.root; root != nil {
		w.runItem(w.groupNodes(r, root, int(root.nsuccs)))
		return
	}
	n, created := r.nt.getOrCreate(r.sink, w.id, nil)
	if !created {
		panic("core: sink node pre-existed at run start")
	}
	w.initAndCompute(r, n)
}

func (w *worker) markStarted(r *graphRun) {
	if !w.startedWork {
		w.startedWork = true
		w.stats.TimeToFirstWork = time.Duration(w.e.now() - r.start)
	}
}

// exec runs one deque item inside the owning graph's failure boundary.
// The single state load is the entire hot-path cost of cancellation and
// panic isolation: items of a failed or canceled graph are discarded
// right here, which is how a dead run's work drains out of every deque
// — the item already carries its *graphRun, so no new synchronization
// and no queue surgery.
//
//nabbit:noalloc
func (w *worker) exec(it item) {
	w.gotWork(false)
	r := it.run
	if r.state.Load() != runLive {
		return
	}
	w.markStarted(r)
	defer w.rescue(r)
	w.runItem(it)
}

// rescue is the engine's panic-isolation boundary: a panic escaping a
// node's Compute — or any spec callback reached while processing an
// item (Predecessors, Color, Home, OnComplete) — is converted into a
// typed *ComputeError that fails only the owning graph, and a slot whose
// creation the panic interrupted is published poisoned (abandonFill). The
// worker goroutine survives: recover unwinds the item's spawn cascade,
// failRun marks the run dead, and every other deque item of the graph is
// discarded at its own exec boundary.
//
//nabbit:alloc-ok runs only when a Compute panicked; the graph is already dead
func (w *worker) rescue(r *graphRun) {
	v := recover()
	if v == nil {
		return
	}
	// A spec callback that panicked inside fill left its slot claimed; the
	// worker's racers on it must see it published (poisoned) to return.
	r.nt.abandonFill(w.id)
	w.e.failRun(r, &ComputeError{
		GraphID: r.id,
		Key:     w.curKey,
		Value:   v,
		Stack:   debug.Stack(),
	})
}

// push reifies a continuation as a stealable deque item tagged with the
// colors available inside it (the paper's cilkrts_set_next_colors), and
// puts it beneath the above newest entries: at the bottom for a split made
// now, deeper for the rest of a range the worker held (see publishRest).
// For the same-coloured items the binary-splitting hot path produces, the
// mask is the item's own color — O(1), and with the inline colorset
// representation no allocation. The item is stealable once the deque op
// returns, so the wake decision follows it.
//
//nabbit:noalloc
func (w *worker) push(it item, above int) {
	ent := deque.Entry[item]{Value: it, Colors: ItemColors(it.color, it.groups(), len(w.e.workers))}
	if above == 0 {
		w.dq.PushBottom(ent)
	} else {
		w.dq.PushBeneath(ent, above)
	}
	w.stats.Pushes++
	w.e.signal()
}

// runItem interprets a morphing continuation: spawn_colors descends into
// the half of the color groups containing this worker's color, leaving
// the other half stealable; spawn_nodes then runs the single remaining
// color group, publishing its halves only where a thief can use them
// (runGroup).
//
//nabbit:noalloc
func (w *worker) runItem(it item) {
	if it.lo == it.hi {
		return
	}
	if it.kind&itemGroups != 0 {
		groups := it.multi.groups
		lo, hi := it.lo, it.hi
		for hi-lo > 1 {
			keepLo, keepHi, pushLo, pushHi := KeepHalf(groups, lo, hi, w.color, w.e.colored)
			w.push(it.sub(pushLo, pushHi), 0)
			lo, hi = keepLo, keepHi
		}
		it = it.sub(lo, hi)
	}
	w.runGroup(it)
}

// runGroup runs a single colour group's keys [lo, hi). Eager binary
// splitting would push the upper half of the range until one key is left,
// then resolve that leaf; here a half is published only when a thief can
// use it. While the worker may hold work (mayHold: its deque already holds
// some, or the deferred wake is armed, and nobody is hungry), it runs the
// keys in order without pushing, for as long as each key it resolves is
// flat — it ran at most one task and opened no range of its own. At the
// first leaf boundary where that stops (or the fairness stride is due, or
// a guest's run has completed), the rest of the range is published as
// eager splitting would have left it (publishRest), and the worker returns
// to its loop. A rest whose run is no longer live is dropped: its items
// would only be discarded at exec.
//
//nabbit:noalloc
func (w *worker) runGroup(it item) {
	w.ranges++
	lo, hi := it.lo, it.hi
	for hi-lo > 1 && !w.mayHold() {
		mid := lo + (hi-lo)/2
		rest := it
		rest.lo = mid
		rest.hi = hi
		w.push(rest, 0)
		hi = mid
	}
	for k := lo; k+1 < hi; k++ {
		pushes, tasks, ranges := w.stats.Pushes, w.stats.NodesExecuted, w.ranges
		w.runLeaf(it, k)
		if it.run.state.Load() != runLive {
			return
		}
		flat := w.stats.NodesExecuted-tasks <= 1 && w.ranges == ranges
		if g := w.guest; !flat || !w.mayHold() || w.streak >= seedStride || g != nil && g.state.Load() != runLive {
			w.publishRest(it, lo, hi, k, int(w.stats.Pushes-pushes))
			return
		}
		w.streak++
	}
	w.runLeaf(it, hi-1)
}

// runLeaf resolves key k of a one-colour range: computes the ready
// successor, or resolves the predecessor key.
//
//nabbit:noalloc
func (w *worker) runLeaf(it item, k int32) {
	if it.kind&itemSucc != 0 {
		w.computeAndNotify(it.run, it.owner.succBacking()[k])
		return
	}
	w.tryInitCompute(it.run, it.owner, it.keys()[k])
}

// mayHold reports whether the worker may keep the rest of a one-colour
// range to itself for one more key: no worker is hungry — none is
// searching, and none is parked unless the deferred wake holds it back —
// and either that deferral is armed or the deque already holds stealable
// work. In exactly those cases a push would neither feed a hunter nor wake
// a sleeper, now or before the next leaf boundary. Without a deferral a
// worker that runs dry may start hunting at any moment, so an empty deque
// publishes; under one, a thief appears only through wakeNow, which clears
// the deferral first, or through a wake that takes a searching count (a
// hand-back's, Close's), and this test sees either at the next boundary.
// A key whose Compute hangs keeps the rest of a held range in the stuck
// worker's locals, but nothing could run that rest anyway: the run cannot
// complete without the hung key, and a ctx deadline fails it whole.
//
// The common answer, an empty deque and no deferral, is read from the
// worker's own counts and a word written once per graph, before the
// searching count, whose line every hunt and steal writes.
func (w *worker) mayHold() bool {
	e := w.e
	deferred := e.deferUntil.Load() != 0
	if !deferred && w.dq.OwnerLen() == 0 {
		return false
	}
	return e.searching.Load() == 0 && (deferred || e.parked.Load() == 0)
}

// publishRest publishes what is left of the range [lo, hi) after key k
// as eager splitting would have left it: the right siblings on k's path
// through the range's split tree, largest first. They go beneath the
// above newest entries — whatever resolving k pushed — so that on one
// worker the engine completes tasks in exactly eager splitting's order.
//
//nabbit:noalloc
func (w *worker) publishRest(it item, lo, hi, k int32, above int) {
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if k >= mid {
			lo = mid
			continue
		}
		rest := it
		rest.lo = mid
		rest.hi = hi
		w.push(rest, above)
		hi = mid
	}
}

// tryInitCompute resolves one predecessor key of owner: create the
// predecessor and process it, or enqueue owner on the existing
// predecessor's successor list, or — if the predecessor has already
// computed — account it directly, possibly making owner ready.
//
//nabbit:noalloc
func (w *worker) tryInitCompute(r *graphRun, owner *Node, pkey Key) {
	w.curKey = pkey
	pred, created := r.nt.getOrCreate(pkey, w.id, owner)
	if created {
		// We created pred with owner already on its successor list, and
		// it cannot have computed yet: owner's join will be accounted by
		// pred's completion notification.
		w.initAndCompute(r, pred)
		return
	}
	if pred.addSuccessor(owner) {
		return // notification will account this predecessor
	}
	// pred had already computed: account it here.
	if owner.decJoin() {
		w.computeAndNotify(r, owner)
	}
}

// initAndCompute processes a freshly created node: compute it immediately
// if it has no predecessors, otherwise spawn its predecessors grouped by
// color.
//
//nabbit:noalloc
func (w *worker) initAndCompute(r *graphRun, n *Node) {
	if n.npreds == 0 {
		w.computeAndNotify(r, n)
		return
	}
	w.runItem(w.groupKeys(r, n))
}

// computeAndNotify executes a ready node, then notifies its successors,
// spawning any that became ready (grouped by color).
//
//nabbit:noalloc
func (w *worker) computeAndNotify(r *graphRun, n *Node) {
	// The key is read once, up front: after this worker's last join
	// decrement below another worker may compute the sink, finish the run
	// and recycle n's page, so nothing of n may be read past that point.
	k := n.key
	w.curKey = k
	e := w.e
	if e.fspec != nil {
		// A failed attempt is retried in place, at once: nothing of it was
		// retired, so no successor ever observed it. A run that died
		// meanwhile (a Cancel from inside ComputeErr, say) is not retried;
		// the failure that killed it owns the cleanup.
		for attempts := 1; ; attempts++ {
			cerr := e.fspec.ComputeErr(k)
			if cerr == nil {
				break
			}
			if attempts >= e.opts.Retry.MaxAttempts {
				w.computeFailed(r, n, cerr, attempts)
				return
			}
			r.retries.Add(1)
			if r.state.Load() != runLive {
				return
			}
		}
	} else {
		e.sv.spec.Compute(k)
	}

	// Counted only for the successful attempt — failed ComputeErr
	// attempts are retry bookkeeping, not schedule work, and must not
	// inflate the locality tables.
	sv := e.sv
	if !w.stats.Executed(n.color == w.color, w.domain, sv.domainOf(n.home), n.predDomain, int(n.npreds)) {
		for _, pk := range n.predKeys() {
			_, h := sv.place(pk)
			w.stats.Access(w.domain, sv.domainOf(h))
		}
	}

	// A Compute can kill its own run (Ticket.Cancel from inside the
	// callback); once the run is observed dead, no further OnComplete
	// fires for it — the failed Wait has already returned, and a late
	// callback would race with whatever the caller does next.
	if e.onComplete != nil && r.state.Load() == runLive {
		e.onComplete(w.id, k)
	}

	// The drained list is this worker's alone now (see Node.retire), so
	// the successors that became ready are moved to its front: a
	// successor-work item then just names n and an index range, and the
	// notify path allocates nothing. Moved by swapping, so the list still
	// holds every successor when a later run replays it. The list is only
	// written while this worker holds a ready successor, which keeps the
	// run — and so n's storage — alive.
	succs := n.retire()
	nready := 0
	for i, s := range succs {
		if s.decJoin() {
			succs[i], succs[nready] = succs[nready], s
			nready++
		}
	}
	if k == r.sink {
		// A DAG's sink has no successors and — since every other live
		// item of this graph would feed an unresolved join below the
		// sink — no items of this graph remain in any deque, so the
		// graph's pages can be recycled right here (see finishRun).
		w.e.finishRun(r, w.id)
		return
	}
	switch nready {
	case 0:
	case 1:
		// A lone ready successor would round-trip through a one-node
		// item whose interpretation is exactly this call; skip the
		// wrapping entirely.
		w.computeAndNotify(r, succs[0])
	default:
		w.runItem(w.groupNodes(r, n, nready))
	}
}

// computeFailed fails the run with the last failed ComputeErr attempt of a
// node this worker owns, the attempts-th: a failed task fails its graph.
// It is kept out of line so the error it builds stays off the noalloc
// per-task path that calls it.
//
//go:noinline
//nabbit:alloc-ok failure path: error construction may allocate
func (w *worker) computeFailed(r *graphRun, n *Node, cerr error, attempts int) {
	w.e.failRun(r, &ComputeError{GraphID: r.id, Key: n.key, Err: cerr, Attempts: attempts})
}

// noteProbeFailed starts the idle clock if it is not already running.
// Called after a failed steal probe, so a findWork call whose very first
// probe hits never touches the clock.
func (w *worker) noteProbeFailed() {
	if w.idleSince.IsZero() {
		w.idleSince = time.Now()
	}
}

// idleSweep ends one fully unsuccessful probe sweep: spin (Gosched) while
// under the bounded-spin budget, then park until new work is pushed, a
// graph arrives, or the engine closes. It reports whether it parked: a
// woken worker must unwind to the main loop (not resume mid-hunt) so the
// pending poll and first-steal enforcement re-run per wake.
func (w *worker) idleSweep() bool {
	w.stats.SpinRounds++
	w.spins++
	if w.spins < spinBeforePark {
		runtime.Gosched()
		return false
	}
	w.spins = 0
	w.park(true, nil)
	return true
}

// findWork implements the stealing policy: while enforcing the first
// colored steal, only colored attempts count (bounded by
// FirstStealMaxRounds sweeps); afterwards the worker walks its steal plan
// (see StealPlan).
//
// Idle time accrues from the first failed probe to the return — the
// all-hits fast path performs zero clock reads (cheap idle accounting;
// previously every call paid two time.Now calls plus a defer). Time spent
// parked counts as idle.
func (w *worker) findWork() (item, bool) {
	it, ok := w.hunt()
	if ok {
		w.gotWork(true)
	}
	if !w.idleSince.IsZero() {
		w.stats.IdleTime += time.Since(w.idleSince)
		w.idleSince = time.Time{}
	}
	return it, ok
}

// hunt is findWork without the idle-clock bookkeeping. Every hunt starts
// its walk at the top of the plan; a bail or a park ends it only between
// sweeps.
func (w *worker) hunt() (item, bool) {
	e := w.e
	nw := len(e.workers)
	if nw == 1 {
		// A lone worker has no victims, and nothing outside this
		// goroutine can create work for a graph it is running: an empty
		// deque here means its graphs are done (or stalled). Park
		// instead of the historical 100%-CPU Gosched ping-pong; a new
		// graph or close wakes us.
		w.noteProbeFailed()
		w.park(true, nil)
		return item{}, false
	}

	if w.firstStealPending {
		first := FirstStealStep(w.plan)
		limit := e.opts.Policy.FirstStealLimit(nw)
		for !w.bail() {
			it, ok := w.probe(&first)
			if w.stats.FirstSteal(ok, limit) {
				w.firstStealPending = false
				if ok {
					return it, true
				}
				break
			}
			if w.idleSweep() {
				return item{}, false
			}
		}
		if w.bail() {
			return item{}, false
		}
	}

	for !w.bail() {
		for i := range w.plan {
			s := &w.plan[i]
			for range s.Budget {
				if it, ok := w.probe(s); ok {
					return it, true
				}
			}
		}
		if w.idleSweep() {
			return item{}, false
		}
	}
	return item{}, false
}

// probe makes one steal attempt of step s. A cross-socket victim of a
// batching step gives up to s.Batch items: the oldest is returned for
// immediate execution and the rest are adopted into w's own deque.
func (w *worker) probe(s *StealStep) (item, bool) {
	v := w.e.workers[s.Victim(&w.rng, w.id)]
	take, batch := s.Take(v.domain == w.domain)
	ents, out := v.dq.Steal(s.Filter, take, w.stealBuf[:0])
	w.stats.Probe(s, len(ents), batch, out == deque.StealMiss)
	if out != deque.StealOK {
		w.noteProbeFailed()
		return item{}, false
	}
	if batch {
		for _, ent := range ents[1:] {
			w.dq.PushBottom(ent)
			w.stats.Pushes++
			w.e.signal()
		}
	}
	it := ents[0].Value
	clear(ents) // the scratch must not keep a finished run reachable
	return it, true
}
