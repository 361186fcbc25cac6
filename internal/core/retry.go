package core

// This file is the engine's transient-failure machinery, two layers on
// top of the multi-tenant core (all of it failure-path — a run with no
// failed attempts executes none of this):
//
//  1. Retry: a FallibleSpec node whose ComputeErr fails is called again at
//     once by the worker that owns its execution (see computeAndNotify),
//     while the run is live and Retry.MaxAttempts allows; only the last
//     failed attempt reaches computeFailed, which converts the failure into
//     a *ComputeError (or a degradation, layer 2).
//  2. Degradation: a permanently failed optional node within the graph's
//     ErrorBudget is retired computed+skipped and its downstream cone is
//     poisoned (setSkip taint + normal join accounting), so the rest of
//     the graph completes with Stats plus a *PartialError.

// computeFailed handles the last failed ComputeErr attempt of a node this
// worker owns, the attempts-th: degrade if the node is optional and the
// graph has error budget, fail the run otherwise.
//
//nabbit:alloc-ok failure path: error construction may allocate
func (w *worker) computeFailed(r *graphRun, n *Node, cerr error, attempts int) {
	e := w.e
	if e.ospec != nil && e.ospec.Optional(n.key) && r.takeBudget(e.opts.ErrorBudget) {
		e.degrade(r, n, w.id)
		return
	}
	e.failRun(r, &ComputeError{GraphID: r.id, Key: n.key, Err: cerr, Attempts: attempts})
}

// degrade retires a permanently failed (exhausted retries) optional node
// as skipped and poisons its downstream cone. The caller holds one unit
// of the graph's error budget (takeBudget) and owns the node's execution,
// so nobody else can retire it first, and the run cannot complete while
// the node is unresolved (every created node is an ancestor of the sink),
// so its table is not recycled under it. It needs no lock. wid is the
// calling worker.
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
