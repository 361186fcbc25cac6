package core

import "time"

// This file is the engine's transient-failure machinery, two layers on
// top of the multi-tenant core (all of it failure-path — a run with no
// failed attempts executes none of this):
//
//  1. Retry: a FallibleSpec node whose ComputeErr fails is re-armed in
//     its state word (bumpAttempt) and re-enqueued after a doubling
//     backoff; only an exhausted attempt budget converts the failure
//     into a *ComputeError (or a degradation, layer 2).
//  2. Degradation: a permanently failed optional node within the graph's
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
	attempts := n.bumpAttempt()
	if attempts < e.opts.Retry.MaxAttempts {
		r.retries.Add(1)
		e.scheduleRetry(r, n, attempts)
		return
	}
	if e.ospec != nil && e.ospec.Optional(n.key) && r.takeBudget(e.opts.ErrorBudget) {
		e.degrade(r, n, w.id)
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

// degrade retires a permanently failed (exhausted retries) optional node
// as skipped and poisons its downstream cone. The caller holds one unit
// of the graph's error budget (takeBudget) and owns the node's execution,
// so nobody else can retire it first. It needs no lock — see tryRetry's
// table-safety argument. wid is the calling worker.
func (e *Engine) degrade(r *graphRun, n *Node, wid int) {
	succs := n.claimSkip()
	r.noteFailed(n.key)
	if e.notifySkipped(r, n, succs) {
		e.finishRun(r, wid)
	}
}

// notifySkipped is the degradation cascade: each successor of a
// just-skipped node is tainted (setSkip) before its join is accounted,
// so whichever worker drains the join last — here, or a normal
// completion elsewhere — observes the taint and retires the node
// instead of executing it. Successors that became ready right here are
// retired recursively. Returns whether the cascade retired the run's
// sink, in which case the caller owes a finishRun.
func (e *Engine) notifySkipped(r *graphRun, n *Node, succs []*Node) bool {
	sinkDone := n.key == r.sink
	for _, s := range succs {
		s.setSkip()
		if s.decJoin() {
			r.noteSkipped(s.key)
			if e.notifySkipped(r, s, s.claimSkip()) {
				sinkDone = true
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
	r.noteSkipped(n.key)
	if w.e.notifySkipped(r, n, n.claimSkip()) {
		w.e.finishRun(r, w.id)
	}
}
