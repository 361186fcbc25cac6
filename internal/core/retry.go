package core

import "time"

// This file is the engine's transient-failure machinery, three layers on
// top of the multi-tenant core (all of it failure-path — a run with no
// failed attempts executes none of this):
//
//  1. Retry: a FallibleSpec node whose ComputeErr fails is re-armed in
//     its state word (bumpAttempt) and re-enqueued after a doubling
//     backoff; only an exhausted attempt budget converts the failure
//     into a *ComputeError (or a degradation, layer 3).
//  2. Watchdog: with NodeTimeout armed, a monitor goroutine samples
//     each worker's published execution through a seqlock and fails (or
//     degrades) runs holding overdue nodes; the stuck goroutine's
//     eventual return is dropped at the post-compute skip check.
//  3. Degradation: a permanently failed optional node within the graph's
//     ErrorBudget is retired computed+skipped and its downstream cone is
//     poisoned (setSkip taint + normal join accounting), so the rest of
//     the graph completes with Stats plus a *PartialError.

// retryEntry is one due retry: a node whose failed attempt has served
// its backoff, waiting for a worker to re-execute it.
type retryEntry struct {
	r *graphRun
	n *Node
}

// computeFailed handles one failed ComputeErr attempt of a node this
// worker owns: re-arm and schedule a retry while attempts remain,
// degrade if the node is optional and the graph has error budget, fail
// the run otherwise.
//
//nabbit:alloc-ok failure path: retry arming and error construction may allocate
func (w *worker) computeFailed(r *graphRun, n *Node, cerr error) {
	e := w.e
	if n.state.Load()&nodeSkipBit != 0 {
		// The watchdog claimed this node between our clearExec and now
		// (or the engine is not a watchdog one and the bit can't be
		// set); the claim owns the node's fate.
		return
	}
	attempts := n.bumpAttempt()
	if attempts < e.opts.Retry.MaxAttempts {
		r.retries.Add(1)
		e.scheduleRetry(r, n, attempts)
		return
	}
	if e.ospec != nil && e.ospec.Optional(n.key) && r.takeBudget(e.opts.ErrorBudget) {
		if e.degrade(r, n, false, w.id) {
			return
		}
		r.giveBudget() // lost the retire race; nothing was consumed
		return
	}
	e.failRun(r, &ComputeError{GraphID: r.id, Key: n.key, Err: cerr, Attempts: attempts})
}

// retryBackoff is the delay before the retry that follows failed
// attempt number attempts: BaseBackoff doubled attempts-1 times.
// withDefaults rejects a BaseBackoff whose last backoff would overflow.
func (e *Engine) retryBackoff(attempts int) time.Duration {
	return e.opts.Retry.BaseBackoff << (attempts - 1)
}

// scheduleRetry re-arms n for another attempt after its backoff. Zero
// backoff re-enqueues immediately; otherwise a timer carries the entry
// (an allocation, acceptable on the failure path). The timer body
// enqueues before dropping retryOut, so the stall sweep can never
// observe a moment where a pending retry is invisible to both counters.
// The timer is kept on the run, under retryMu, for failRun to stop; a run
// that has already failed gets none.
func (e *Engine) scheduleRetry(r *graphRun, n *Node, attempts int) {
	d := e.retryBackoff(attempts)
	if d <= 0 {
		e.enqueueRetry(r, n)
		return
	}
	e.retryMu.Lock()
	defer e.retryMu.Unlock()
	if r.state.Load() != runLive {
		return
	}
	e.retryOut.Add(1)
	r.backoffs = append(r.backoffs, time.AfterFunc(d, func() {
		e.enqueueRetry(r, n)
		e.retryOut.Add(-1)
	}))
}

// enqueueRetry publishes a due retry to the workers and wakes one to
// claim it.
func (e *Engine) enqueueRetry(r *graphRun, n *Node) {
	e.retryMu.Lock()
	e.retryQ = append(e.retryQ, retryEntry{r: r, n: n})
	e.retryDue.Store(int32(len(e.retryQ)))
	e.retryMu.Unlock()
	e.wakeNow()
}

// tryRetry pops one due retry and re-executes its node inside the
// owning graph's failure boundary, reporting whether it consumed an
// entry. Entries of dead runs are discarded without dereferencing the
// node — the failure that killed the run owns all cleanup, and the
// node's table may already be quarantined. A live entry's node is safe
// to touch: its run cannot complete while the node is unresolved (every
// created node is an ancestor of the sink), and a concurrent failure
// only quarantines the table, which is not reclaimed until every worker
// — including this one — parks.
func (w *worker) tryRetry() bool {
	e := w.e
	if e.retryDue.Load() == 0 {
		return false
	}
	e.retryMu.Lock()
	nq := len(e.retryQ)
	if nq == 0 {
		e.retryMu.Unlock()
		return false
	}
	ent := e.retryQ[nq-1]
	e.retryQ[nq-1] = retryEntry{}
	e.retryQ = e.retryQ[:nq-1]
	e.retryDue.Store(int32(nq - 1))
	e.retryMu.Unlock()
	w.gotWork(false)
	if ent.r.state.Load() != runLive {
		return true
	}
	w.markStarted(ent.r)
	w.execRetry(ent.r, ent.n)
	return true
}

// execRetry re-runs a retried node under the same rescue boundary as
// any other item of its graph.
func (w *worker) execRetry(r *graphRun, n *Node) {
	defer w.rescue(r)
	w.computeAndNotify(r, n)
}

// degrade retires a permanently failed (exhausted retries) or hung
// (timedOut) optional node as skipped and poisons its downstream cone.
// The caller must already hold one unit of the graph's error budget
// (takeBudget); ok=false reports that a racing completion retired the
// node first, in which case nothing happened and the caller should
// refund the budget. Worker callers need no lock — see tryRetry's
// table-safety argument; the monitor runs the same steps itself under
// stateMu (nodeOverdue). wid is the calling worker.
func (e *Engine) degrade(r *graphRun, n *Node, timedOut bool, wid int) bool {
	succs, ok := n.claimSkip()
	if !ok {
		return false
	}
	r.noteFailed(n.key, timedOut)
	if e.notifySkipped(r, n, succs) {
		e.finishRun(r, wid)
	}
	return true
}

// notifySkipped is the degradation cascade: each successor of a
// just-skipped node is tainted (setSkip) before its join is accounted,
// so whichever worker drains the join last — here, or a normal
// completion elsewhere — observes the taint and retires the node
// instead of executing it. Successors that became ready right here are
// retired recursively. Returns whether the cascade retired the run's
// sink, in which case the caller owes a finishRun (returned rather than
// called so the monitor can finish outside stateMu).
func (e *Engine) notifySkipped(r *graphRun, n *Node, succs []*Node) bool {
	sinkDone := n.key == r.sink
	for _, s := range succs {
		s.setSkip()
		if s.decJoin() {
			if ss, ok := s.claimSkip(); ok {
				r.noteSkipped(s.key)
				if e.notifySkipped(r, s, ss) {
					sinkDone = true
				}
			}
		}
	}
	return sinkDone
}

// skipReady retires a node that arrived at the compute entry point
// tainted: it is accounted skipped and its cone poisoned, exactly as if
// the cascade had caught it before readiness.
//
//nabbit:alloc-ok degraded-completion path: skip bookkeeping may allocate
func (w *worker) skipReady(r *graphRun, n *Node) {
	if succs, ok := n.claimSkip(); ok {
		r.noteSkipped(n.key)
		if w.e.notifySkipped(r, n, succs) {
			w.e.finishRun(r, w.id)
		}
	}
}

// publishExec opens this worker's seqlock window and publishes the
// execution the watchdog should time: the run, the node (as a pointer —
// the monitor must never look up a table it cannot prove is still owned
// by the run), the node's key (by value — the monitor names the node in
// its error and asks the spec about it before it has pinned the run, when
// the pointer may already lead into a recycled page), and the start
// timestamp.
func (w *worker) publishExec(r *graphRun, n *Node, k Key) {
	w.pubSeq.Add(1) // odd: update in flight
	w.pubRun.Store(r)
	w.pubNode.Store(n)
	w.pubKey.Store(int64(k))
	w.pubStart.Store(time.Now().UnixNano())
	w.pubSeq.Add(1) // even: stable
}

// clearExec retires the publication after the compute returns (or
// panics — see rescue).
func (w *worker) clearExec() {
	w.pubSeq.Add(1)
	w.pubRun.Store(nil)
	w.pubNode.Store(nil)
	w.pubSeq.Add(1)
}

// sampleExec is the monitor's side of the seqlock: retry a bounded
// number of times for a stable (even, unchanged) sequence around the
// reads, giving up — this tick; the next will try again — rather than
// spinning against a busy worker.
func (w *worker) sampleExec() (r *graphRun, n *Node, k Key, startNs int64, ok bool) {
	for try := 0; try < 4; try++ {
		s := w.pubSeq.Load()
		if s%2 != 0 {
			continue
		}
		r = w.pubRun.Load()
		n = w.pubNode.Load()
		k = Key(w.pubKey.Load())
		startNs = w.pubStart.Load()
		if w.pubSeq.Load() == s {
			return r, n, k, startNs, r != nil && n != nil
		}
	}
	return nil, nil, 0, 0, false
}

// monitor is the hang-watchdog goroutine, started by NewEngine when
// NodeTimeout is armed and stopped by Close after the drain (a hung
// in-flight graph needs the monitor to time out, or the drain would
// never finish). The tick is a quarter of NodeTimeout, at least 100 µs,
// so an overdue node is detected well within 2× NodeTimeout.
func (e *Engine) monitor() {
	defer e.monWG.Done()
	t := time.NewTicker(max(e.opts.NodeTimeout/4, 100*time.Microsecond))
	defer t.Stop()
	for {
		select {
		case <-e.monStop:
			return
		case <-t.C:
			e.sweepOverdue()
		}
	}
}

// sweepOverdue is one monitor tick: check every worker's published
// execution against NodeTimeout.
func (e *Engine) sweepOverdue() {
	nt := e.opts.NodeTimeout
	now := time.Now().UnixNano()
	for _, w := range e.workers {
		r, n, k, startNs, ok := w.sampleExec()
		if !ok || now-startNs <= int64(nt) || r.state.Load() != runLive {
			continue
		}
		e.nodeOverdue(r, n, k, nt)
	}
}

// nodeOverdue acts on one node that overran NodeTimeout: degrade it
// when the spec marks it optional and the graph has error budget, fail
// the run otherwise. The stuck worker's eventual return is dropped at
// its post-compute skip check (degrade) or its exec-boundary dead-run
// check (fail); either way the goroutine itself survives and the pool
// stays healthy.
//
// The degrade path runs under stateMu with a runLive re-check: the
// monitor is the one degrader that does not own the node's execution,
// and the lock is what pins the run's nodes — a finished run hands its
// pages back inside finishRun's stateMu section, and checkout, reset and
// reclaim all require stateMu too — so a racing completion cannot recycle
// the page under n mid-claim. Until the run is pinned, n itself is not
// safe to read at all: the sampled run may have finished since, and its
// page may already hold another graph's node. The node is therefore named
// by k, the key the worker published beside the pointer.
func (e *Engine) nodeOverdue(r *graphRun, n *Node, k Key, nt time.Duration) {
	if e.ospec != nil && e.ospec.Optional(k) {
		e.stateMu.Lock()
		if r.state.Load() != runLive || n.state.Load()&nodeSkipBit != 0 {
			// Over, or degraded on an earlier tick while its Compute
			// still hangs: the node has had its budget.
			e.stateMu.Unlock()
			return
		}
		if r.takeBudget(e.opts.ErrorBudget) {
			succs, ok := n.claimSkip()
			if !ok {
				// The stuck worker was merely slow and finished after
				// our sample; nothing to do.
				r.giveBudget()
				e.stateMu.Unlock()
				return
			}
			r.noteFailed(k, true)
			r.hung.Add(1)
			sinkDone := e.notifySkipped(r, n, succs)
			e.stateMu.Unlock()
			if sinkDone {
				e.finishRun(r, -1)
			}
			return
		}
		e.stateMu.Unlock()
	}
	e.failRun(r, &TimeoutError{GraphID: r.id, Key: k, Limit: nt})
}
