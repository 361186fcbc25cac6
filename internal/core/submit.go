package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSaturated is returned by Submit under Options.AdmissionReject when
// Options.MaxInflight graphs are already in flight.
var ErrSaturated = errors.New("core: engine saturated (MaxInflight graphs in flight)")

// graphRun completion states, held in graphRun.state. A run completes
// exactly once: the sink's computing worker (runDone), or whichever of
// Cancel / ctx expiry / panic rescue / the stall sweep wins the CAS
// first (runFailed). The CAS winner owns the whole completion — registry
// removal, slot release, table disposal, and closing done.
const (
	runLive uint32 = iota
	runDone
	runFailed
)

// graphRun is the per-graph run state: one admitted task graph, its
// private node-table instance, and its completion cell. Generalizing the
// single-run engine state to a per-graph object is what lets many graphs
// share the worker pool — their deque items carry the owning graphRun,
// so a worker can interleave items of different graphs freely, and a
// single atomic load of state is all it costs to discard items of a
// failed or canceled graph at the exec boundary.
type graphRun struct {
	id   uint64
	sink Key
	// nt is this graph's node table, checked out of the engine's pool
	// at admission and returned when the sink computes — or quarantined
	// when the run fails mid-flight (see Engine.reclaimTablesLocked).
	// Tables are never shared between in-flight graphs; what they do
	// share, the pages, moves between them only through the engine's page
	// pool.
	nt *nodeArena
	// root is the replay root the table handed out at checkout, nil for a
	// run that discovers its graph from the sink (see worker.seed).
	root  *Node
	start time.Time
	// state is the completion word (runLive/runDone/runFailed); see the
	// constants above for the single-completion protocol.
	state atomic.Uint32
	// done is closed exactly once, after stats/err are final. stats is nil
	// until a run that completed points it at statsBuf; the run's Ticket and
	// Stats live in the run itself, so a graph costs one allocation for the
	// run and one for done.
	done     chan struct{}
	stats    *Stats
	err      error
	statsBuf Stats
	ticket   Ticket
	// callerRuns marks a run whose Ticket.Wait may run it on the waiting
	// goroutine: admitted without a ctx into an engine without the
	// watchdog. Those two promise that Wait returns while a Compute is
	// still stuck, which a goroutine inside that Compute cannot do.
	callerRuns bool

	// Transient-failure bookkeeping (see retry.go); all failure-path —
	// a healthy run only ever loads the counters once, in finishRun.
	// retries counts re-enqueued failed attempts; failed is the consumed
	// error budget (CAS-bounded by Options.ErrorBudget); timedOut counts
	// watchdog degradations, hung those whose worker is still stuck
	// inside the compute (forcing table quarantine); skippedN counts
	// cone nodes retired without executing. failMu guards the key lists
	// behind the run's *PartialError. backoffs, guarded by Engine.retryMu,
	// holds the run's retry timers for failRun to stop.
	retries     atomic.Int64
	failed      atomic.Int32
	timedOut    atomic.Int32
	hung        atomic.Int32
	skippedN    atomic.Int32
	failMu      sync.Mutex
	failedKeys  []Key
	skippedKeys []Key
	backoffs    []*time.Timer

	// regIdx is the run's position in Engine.runs while it is registered
	// (guarded by stateMu), so completion removes it without a scan. It is
	// rewritten when another run's removal moves this one, so it sits down
	// here, off the lines the workers running this graph read.
	regIdx int
}

// takeBudget consumes one unit of the graph's error budget, reporting
// whether any remained. budget <= 0 disables degradation entirely.
func (r *graphRun) takeBudget(budget int) bool {
	for {
		c := r.failed.Load()
		if int(c) >= budget {
			return false
		}
		if r.failed.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// giveBudget refunds a unit whose degrade lost the retire race.
func (r *graphRun) giveBudget() { r.failed.Add(-1) }

// noteFailed records a permanently failed optional node (timedOut when
// the watchdog, rather than an exhausted retry budget, retired it).
func (r *graphRun) noteFailed(k Key, timedOut bool) {
	if timedOut {
		r.timedOut.Add(1)
	}
	r.failMu.Lock()
	r.failedKeys = append(r.failedKeys, k)
	r.failMu.Unlock()
}

// noteSkipped records one downstream node poisoned by a failed
// ancestor; the sample list is bounded, the count is not.
func (r *graphRun) noteSkipped(k Key) {
	r.skippedN.Add(1)
	r.failMu.Lock()
	if len(r.skippedKeys) < StallPendingMax {
		r.skippedKeys = append(r.skippedKeys, k)
	}
	r.failMu.Unlock()
}

// partialError builds the degraded-completion diagnostic. Safe at
// finishRun time: every degrade's bookkeeping happens-before its
// cascade reaches the sink, and the sink's retirement is what triggered
// this call.
func (r *graphRun) partialError() *PartialError {
	r.failMu.Lock()
	failed := append([]Key(nil), r.failedKeys...)
	skipped := append([]Key(nil), r.skippedKeys...)
	r.failMu.Unlock()
	slices.Sort(failed)
	slices.Sort(skipped)
	return &PartialError{
		GraphID:      r.id,
		Failed:       failed,
		Skipped:      skipped,
		SkippedTotal: int(r.skippedN.Load()),
	}
}

// Ticket is a handle to a submitted graph.
type Ticket struct {
	e *Engine
	r *graphRun
}

// Wait blocks until the graph completes and returns its stats. The
// per-worker counters (Stats.Workers) are nil: workers interleave many
// graphs, so per-worker activity cannot be attributed to one submission —
// use Execute for a fully attributed run. Wait may be called any number
// of times, from any goroutine, including from inside a Compute. On
// failure the stats are nil and the error is typed: *ComputeError for a
// recovered panic or an exhausted retry budget, ErrCanceled (wrapped) for
// Cancel/ctx aborts, *TimeoutError for a watchdog kill, *StallError for a
// graph whose sink can never compute. A degraded completion returns BOTH
// non-nil stats and a non-nil *PartialError (see Options.ErrorBudget).
//
// Wait does not sleep while it could work: if the run is still live and a
// worker is parked, the waiting goroutine borrows that worker — it runs
// the worker's loop, under the worker's id, on the worker's deque — until
// the run completes or the worker finds nothing to do, then hands it back.
// So the graph's tasks (and, as on any worker, tasks of other graphs in
// flight) may run on the goroutine that called Wait, a Compute panic there
// is recovered into this Wait's *ComputeError like any other, and Wait
// returns at the first leaf boundary after the run completes or is
// canceled: after the key the worker is resolving, whether it popped that
// key's item or runs the key in turn from a range it holds (see runGroup).
// Runs admitted through SubmitCtx, and every run of an engine with
// NodeTimeout set, only ever block here: their Wait must return even while
// a Compute is stuck.
func (t *Ticket) Wait() (*Stats, error) {
	r, e := t.r, t.e
	if r.callerRuns {
		for r.state.Load() == runLive {
			w := e.borrow(r)
			if w == nil {
				break
			}
			w.loop()
			if w.handBack() {
				break // every task of the run is in some other worker's hands
			}
		}
	}
	if r.state.Load() == runLive {
		e.wakeNow() // about to sleep on the run: its wake must not be waiting for us
	}
	<-r.done
	return r.stats, r.err
}

// Done returns a channel closed when the graph completes, for callers
// multiplexing many tickets with select. The caller is about to sleep on
// the graph rather than run it from Wait, so a wake still held back for it
// is issued now.
func (t *Ticket) Done() <-chan struct{} {
	t.e.wakeNow()
	return t.r.done
}

// Cancel aborts the graph if it has not already completed: the run is
// marked dead (workers discard its remaining deque items at the exec
// boundary), its admission slot is released, and Wait returns an error
// matching errors.Is(err, ErrCanceled). Cancel reports whether this
// call aborted the run; false means the run had already finished,
// failed, or been canceled. Cancellation is asynchronous with respect
// to in-flight nodes — a worker, or a goroutine running the graph from
// Wait, may still be finishing the node it had started — but no further
// nodes of the graph are begun, and such a Wait returns at its next leaf
// boundary.
func (t *Ticket) Cancel() bool {
	return t.e.failRun(t.r, cancelErr(t.r.id, nil))
}

// Submit admits the task graph whose completion is marked by the sink
// task and returns immediately with a Ticket; workers compute the graph
// concurrently with any other in-flight submissions — and so does a
// goroutine that calls Ticket.Wait while the graph is live, under a parked
// worker's id (see Wait). A graph submitted to an idle engine is left to
// such a waiter before a worker is woken for it: for deferDelay if anybody
// looks at the engine in the meantime (Wait, Done, another Submit, Execute),
// for about a millisecond — the Go runtime's timer granularity on an idle
// process — if nobody does. It completes whether or not anybody waits; a
// caller that will not Wait and minds the millisecond calls Done. Admission is
// bounded by Options.MaxInflight: when the bound is reached, Submit
// blocks until a slot frees (Options.AdmissionBlock, the default) or
// fails fast with ErrSaturated (Options.AdmissionReject). A graph whose
// sink can never compute (cycle, unsatisfiable predecessor) fails its
// Ticket with a *StallError once the pool has provably stalled, leaving
// the engine reusable. Submit on a closed engine returns ErrClosed.
func (e *Engine) Submit(sink Key) (*Ticket, error) {
	return e.submit(nil, sink)
}

// SubmitCtx is Submit with caller-controlled cancellation: ctx (which
// must be non-nil) aborts both the admission wait and, once admitted,
// the run itself. Expiry marks the graph dead, releases its admission
// slot, and fails the Ticket with an error matching errors.Is(err,
// ErrCanceled) that also wraps ctx.Err().
func (e *Engine) SubmitCtx(ctx context.Context, sink Key) (*Ticket, error) {
	return e.submit(ctx, sink)
}

// submit is the shared admission path; ctx is nil for plain Submit,
// keeping the no-ctx fast path free of watcher goroutines and ctx
// plumbing (its steady-state cost stays at the graphRun + done
// allocations the throughput gate pins).
func (e *Engine) submit(ctx context.Context, sink Key) (*Ticket, error) {
	if e.closing.Load() {
		return nil, ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, cancelErr(0, err)
		}
	}
	switch {
	case e.opts.Admission == AdmissionReject:
		select {
		case e.slots <- struct{}{}:
		default:
			return nil, ErrSaturated
		}
	case ctx == nil:
		select {
		case e.slots <- struct{}{}:
		case <-e.closedCh:
			return nil, ErrClosed
		}
	default:
		select {
		case e.slots <- struct{}{}:
		case <-e.closedCh:
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, cancelErr(0, ctx.Err())
		}
	}
	// The admission clock is read before the lock, not under it: stateMu is
	// the one lock every admission and every completion shares.
	r := &graphRun{id: e.nextID.Add(1), sink: sink, done: make(chan struct{}), start: time.Now()}
	r.ticket = Ticket{e: e, r: r}
	r.callerRuns = ctx == nil && !e.watchdogOn
	e.stateMu.Lock()
	if e.closing.Load() {
		// Close won the race after our slot acquire; its drain loop may
		// already have seen an idle engine, so this graph must not run.
		e.stateMu.Unlock()
		<-e.slots
		return nil, ErrClosed
	}
	// The deferred wake. A graph admitted into a fully idle engine — no
	// other graph in flight, every worker parked — whose waiter may run it
	// (callerRuns) is not worth a wake yet: its caller most likely waits at
	// once, and a small graph is finished on the waiting goroutine (see
	// Ticket.Wait) before a woken worker could reach it. So the admission
	// publishes a deadline instead, which makes signal hold every wake back
	// until somebody retires it (wakeNow). It is armed here, under stateMu and
	// after the graph is published, so a later admission's wakeNow cannot
	// come before it, and whoever retires it sees the graph; the timer is set
	// after the deadline is visible, so no armed deferral is without one. An
	// admission that finds the last deferral still armed (its graph was
	// canceled, or ran on its waiter) simply moves the deadline.
	if r.callerRuns && e.deferTimer == nil {
		e.deferTimer = time.AfterFunc(time.Hour, e.deferredWake)
		e.deferTimer.Stop()
	}
	idle := e.active.Load() == 0
	e.admitLocked(r, false)
	// parked is read after the graph is published: a worker that was still
	// on its way to parking either is counted here or re-checks pending
	// after its announcement.
	deferred := idle && r.callerRuns && e.parked.Load() == int32(len(e.workers))
	if deferred {
		e.deferUntil.Store(int64(r.start.Sub(e.epoch) + deferDelay))
	}
	e.stateMu.Unlock()
	if deferred {
		e.at(yieldArmed, nil)
		e.deferTimer.Reset(deferDelay)
	} else {
		e.wakeNow()
	}
	if ctx != nil {
		go e.watchCtx(ctx, r)
	}
	return &r.ticket, nil
}

// watchCtx fails the run when its context expires before the run
// completes; either way it exits once the run is over.
func (e *Engine) watchCtx(ctx context.Context, r *graphRun) {
	select {
	case <-ctx.Done():
		e.failRun(r, cancelErr(r.id, ctx.Err()))
	case <-r.done:
	}
}

// admitLocked registers an admitted graph (caller holds stateMu and the
// graph's admission slot, and has set r.start): check out a node table,
// enter the run registry, and enqueue the graph for seeding. Registering and enqueuing
// in one critical section means the stall sweep can never observe a
// registered graph that is invisible to the workers. quiet reports that the
// caller holds the engine's quiet state (Execute), where the table may spend
// a pass over its nodes on a replay; a Submit's checkout sits in front of
// every other tenant and never does.
func (e *Engine) admitLocked(r *graphRun, quiet bool) {
	r.nt, r.root = e.checkoutTableLocked(r.sink, quiet)
	r.regIdx = len(e.runs)
	e.runs = append(e.runs, r)
	e.active.Add(1)
	select {
	case e.pending <- r:
	default:
		e.sweepPendingLocked()
		e.pending <- r // cannot block: the sweep freed a place (see there)
	}
}

// sweepPendingLocked drops the runs that are no longer live from a full
// pending queue (caller holds stateMu). pending has MaxInflight capacity
// and every live pending graph holds an admission slot, as does the graph
// being admitted, so a full queue holds at least one stale entry: a run
// canceled before any worker reached it gave its slot back but stays queued
// until somebody polls it out (see trySeed). With the wake deferred nobody
// is awake to poll, so a Submit-then-Cancel loop on an idle engine fills the
// queue within microseconds, and blocking on it here would hold stateMu
// against the very workers that could drain it (finishRun needs the lock).
// One pass over the queue is enough: only admissions send, they hold stateMu
// as the caller does, and receivers only make more room.
func (e *Engine) sweepPendingLocked() {
	for n := len(e.pending); n > 0; n-- {
		select {
		case p := <-e.pending:
			if p.state.Load() == runLive {
				e.pending <- p
			}
		default:
			return
		}
	}
}

// checkoutTableLocked pops an idle node table from the pool or builds a
// new one when every table is in use, and resets it for the
// graph rooted at sink (forgetting its previous graph). Pool capacity converges to the peak
// in-flight graph count, bounded by MaxInflight.
func (e *Engine) checkoutTableLocked(sink Key, quiet bool) (*nodeArena, *Node) {
	var nt *nodeArena
	if n := len(e.tables); n > 0 {
		nt = e.tables[n-1]
		e.tables[n-1] = nil
		e.tables = e.tables[:n-1]
	} else {
		nt = newNodeArena(e.sv, e.pool)
	}
	return nt, nt.reset(sink, quiet)
}

// finishRun completes a graph whose sink just computed, called by the
// computing worker (wid; -1 from the watchdog's monitor). At this instant
// no items of the graph remain in any deque (every live item would feed an
// unresolved join below the sink, contradicting the sink having computed)
// and no other worker holds a reference into the graph's nodes, so the
// table's pages go back to the page pool and the table to the table pool
// immediately — table memory follows the nodes in flight, not the graphs
// admitted. The hand-back sits inside the stateMu section on purpose: the
// watchdog pins a live run's nodes by holding stateMu across its runLive
// check and its claim (nodeOverdue), so a page may not move until any such
// section that still saw this run live has ended. The run that leaves the
// engine idle also trims the page pool (see pagePool.trim), so an idle
// engine's node memory does not depend on how many pages its busiest
// moment needed. If a concurrent Cancel/ctx expiry won the completion CAS
// first, that winner owns the cleanup and the computed result is discarded.
//
//nabbit:alloc-ok once-per-graph epilogue: a degraded run builds its PartialError
func (e *Engine) finishRun(r *graphRun, wid int) {
	if !r.state.CompareAndSwap(runLive, runDone) {
		return
	}
	r.statsBuf = Stats{
		GraphID:      r.id,
		Elapsed:      time.Since(r.start),
		NodesCreated: r.nt.count(),
		Replayed:     r.root != nil,
		Topology:     e.opts.Topology,
		Retries:      r.retries.Load(),
		TimedOut:     int(r.timedOut.Load()),
		Skipped:      int(r.skippedN.Load()),
	}
	r.stats = &r.statsBuf
	if r.failed.Load() > 0 {
		r.err = r.partialError()
	}
	e.stateMu.Lock()
	if r.hung.Load() > 0 {
		// A watchdog-degraded node's worker is still stuck inside its
		// compute, holding pointers into this run's nodes: quarantine
		// the table, pages and all, like a failed run's (reclaimed at
		// the next proven-quiet point) instead of pooling it.
		e.deadTables = append(e.deadTables, r.nt)
		e.quarantined.Store(int32(len(e.deadTables)))
	} else {
		r.nt.release(wid, r.err == nil) // a degraded run (failed, skipped, timed out) left r.err
		e.tables = append(e.tables, r.nt)
	}
	e.removeRunLocked(r)
	if len(e.runs) == 0 && len(e.deadTables) == 0 {
		e.pool.trim()
	}
	e.stateMu.Unlock()
	<-e.slots
	close(r.done)
}

// failRun completes r exceptionally with err. The first completion —
// sink, Cancel, ctx expiry, panic rescue, stall sweep — wins the state
// CAS and owns the cleanup; failRun reports whether this call was that
// winner. Safe to call from any goroutine. Items of the failed graph
// still sitting in deques are discarded by the workers at the exec
// boundary (one atomic load per item), which is how a dead graph's work
// drains out of every deque with no queue surgery; its retries in backoff
// are stopped. The node table is
// quarantined rather than pooled: workers may still be mid-item on the
// graph's nodes, so the table — and every page it holds — is recycled
// only at a proven-quiet point (see reclaimTablesLocked).
func (e *Engine) failRun(r *graphRun, err error) bool {
	if !r.state.CompareAndSwap(runLive, runFailed) {
		return false
	}
	r.err = err
	// Stop the run's backoff timers, now that scheduleRetry adds none: their
	// retries would only be discarded, and quiet need not wait them out. A
	// timer Stop misses is already firing and drops retryOut itself.
	e.retryMu.Lock()
	for _, t := range r.backoffs {
		if t.Stop() {
			e.retryOut.Add(-1)
		}
	}
	r.backoffs = nil
	e.retryMu.Unlock()
	e.stateMu.Lock()
	e.removeRunLocked(r)
	e.deadTables = append(e.deadTables, r.nt)
	e.quarantined.Store(int32(len(e.deadTables)))
	e.stateMu.Unlock()
	<-e.slots
	close(r.done)
	return true
}

// removeRunLocked drops r from the run registry (caller holds stateMu):
// the last run takes r's place, so removal is O(1) however many graphs are
// in flight.
func (e *Engine) removeRunLocked(r *graphRun) {
	i, last := r.regIdx, len(e.runs)-1
	if i > last || e.runs[i] != r {
		panic("core: finished graph not in run registry")
	}
	e.runs[i] = e.runs[last]
	e.runs[i].regIdx = i
	e.runs[last] = nil
	e.runs = e.runs[:last]
	e.active.Add(-1)
}

// failStalled is the stall sweep: called by a worker whose park
// announcement made the whole pool parked while graphs were still
// registered (or failed-run tables still quarantined). In the quiet state
// (quietLocked) no registered graph can ever make progress — their sinks
// are unreachable (a cycle, an unsatisfiable predecessor); a due or
// in-backoff retry, by contrast, is future work, and its enqueue will wake
// a worker. Each stalled graph is failed with a *StallError naming its
// never-computed nodes, and every quarantined table is reclaimed, so the
// engine stays usable. The state is re-verified under stateMu: a racing
// admission either registered before the sweep locked (and is visible in
// pending) or after (and misses the sweep entirely).
func (e *Engine) failStalled() {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if e.closeFlag.Load() || !e.quietLocked() {
		return
	}
	// The pool is provably quiet, so no worker can be touching a failed
	// run's nodes anymore: recycle the quarantined tables.
	e.reclaimTablesLocked()
	if e.active.Load() == 0 {
		return
	}
	keep := e.runs[:0]
	for _, r := range e.runs {
		if !r.state.CompareAndSwap(runLive, runFailed) {
			// A concurrent Cancel/ctx expiry won this run's completion
			// and is about to remove it (it owns the slot release and
			// done close); leave the run to its winner.
			r.regIdx = len(keep)
			keep = append(keep, r)
			continue
		}
		r.err = NewStallError(r.id, r.sink, r.nt.pendingKeys())
		// Every worker is parked, so unlike failRun the table and its
		// pages can go straight back to their pools.
		r.nt.release(-1, false)
		e.tables = append(e.tables, r.nt)
		e.active.Add(-1)
		// Non-blocking by construction: the failing run still holds its
		// admission slot, so the channel cannot be empty here.
		<-e.slots //nabbit:lockheld-ok guaranteed-full slot release
		close(r.done)
	}
	for i := len(keep); i < len(e.runs); i++ {
		e.runs[i] = nil
	}
	e.runs = keep
}

// reclaimTablesLocked recycles the node tables of failed runs, and the
// pages they still hold, back into their pools. A failed run's table is
// quarantined at failure time because
// workers may still be executing an in-flight item that touches its
// nodes; callers hold stateMu at a proven-quiet point (every worker
// parked, nothing pending), where no worker can hold a reference into
// any table.
func (e *Engine) reclaimTablesLocked() {
	if len(e.deadTables) == 0 {
		return
	}
	for i, nt := range e.deadTables {
		nt.release(-1, false)
		e.tables = append(e.tables, nt)
		e.deadTables[i] = nil
	}
	e.deadTables = e.deadTables[:0]
	e.quarantined.Store(0)
}
