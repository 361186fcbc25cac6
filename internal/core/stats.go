package core

import (
	"time"

	"nabbitc/internal/numa"
)

// Counters are the scheduler counters both machines keep per worker: the
// real engine embeds them in WorkerStats, the simulator in sim.WorkerStats,
// and the two record a steal probe through the same calls (Probe,
// FirstSteal). All of them are written only by the owning worker; read
// after the run completes.
type Counters struct {
	// NodesExecuted counts tasks this worker computed.
	NodesExecuted int64
	// OwnColorNodes counts computed tasks whose color equals this
	// worker's color exactly (stricter than same-domain).
	OwnColorNodes int64
	// Accesses tallies the paper's node-level locality metric: one
	// access per executed node plus one per predecessor of each
	// executed node, remote when the data's home color is in a
	// different NUMA domain than this worker.
	Accesses numa.AccessCounter

	// StealsOK counts successful steals of any kind; ColoredStealsOK
	// the subset that were colored.
	StealsOK        int64
	ColoredStealsOK int64
	// StealAttempts counts all steal probes; ColoredAttempts the
	// colored subset; ColoredMisses colored probes that found work of
	// the wrong color (as opposed to an empty deque).
	StealAttempts   int64
	ColoredAttempts int64
	ColoredMisses   int64
	// FirstStealChecks is the number of colored probes made while
	// enforcing the first colored steal — the paper's per-worker C term.
	FirstStealChecks int64
	// FirstStealForcedOK reports whether the enforced first colored
	// steal succeeded (vs. giving up after Policy.FirstStealLimit probes).
	FirstStealForcedOK bool

	// TierAttempts and TierSteals break the steal probes down by
	// hierarchy tier (TierSteals counts batched steals once, regardless
	// of batch size). Flat-policy probes land in the global tiers.
	TierAttempts [NumStealTiers]int64
	TierSteals   [NumStealTiers]int64
	// BatchOps counts successful batched (steal-half) operations;
	// BatchItems the total items those batches returned. BatchItems /
	// BatchOps is the mean realized batch size.
	BatchOps   int64
	BatchItems int64
}

// Executed records one node executed by a worker of NUMA domain d, own
// when the node has the worker's colour, with the paper's locality tally
// (§V-B): one access for the node, homed in domain home, and one per
// predecessor, judged by predDomain, the domain all npreds of their homes
// lie in (PredSummary). When that is PredMixed it reports false, and the
// caller tallies each predecessor's home with Access.
//
//nabbit:noalloc
func (c *Counters) Executed(own bool, d, home, predDomain int32, npreds int) bool {
	c.NodesExecuted++
	if own {
		c.OwnColorNodes++
	}
	c.Access(d, home)
	switch {
	case npreds == 0:
	case predDomain == d:
		c.Accesses.Local += int64(npreds)
	case predDomain != PredMixed:
		c.Accesses.Remote += int64(npreds)
	default:
		return false
	}
	return true
}

// Access records one access by a worker of NUMA domain d to data homed in
// domain home: local exactly when the two are the same domain.
//
//nabbit:noalloc
func (c *Counters) Access(d, home int32) {
	if home == d {
		c.Accesses.Local++
	} else {
		c.Accesses.Remote++
	}
}

// Probe records one steal probe of step s that took n items, 0 when it
// failed. batch reports a batched probe (a batching step's cross-socket
// victim), which counts as one batch of n items; miss reports a colored
// probe whose victim held work the filter turned away, as opposed to an
// empty deque.
//
//nabbit:noalloc
func (c *Counters) Probe(s *StealStep, n int, batch, miss bool) {
	colored := s.Filter != nil
	c.StealAttempts++
	c.TierAttempts[s.Tier]++
	if colored {
		c.ColoredAttempts++
	}
	switch {
	case n > 0:
		c.StealsOK++
		c.TierSteals[s.Tier]++
		if colored {
			c.ColoredStealsOK++
		}
		if batch {
			c.BatchOps++
			c.BatchItems += int64(n)
		}
	case miss:
		c.ColoredMisses++
	}
}

// FirstSteal records one probe of the enforced first colored steal, which
// stole if ok, and reports whether the enforcement is over: the probe
// stole, or it was the limit-th without (see Policy.FirstStealLimit).
func (c *Counters) FirstSteal(ok bool, limit int64) (over bool) {
	c.FirstStealChecks++
	if ok {
		c.FirstStealForcedOK = true
	}
	return ok || c.FirstStealChecks >= limit
}

// add accumulates o into c; FirstStealForcedOK becomes true if either is.
func (c *Counters) add(o *Counters) {
	c.NodesExecuted += o.NodesExecuted
	c.OwnColorNodes += o.OwnColorNodes
	c.Accesses.Merge(o.Accesses)
	c.StealsOK += o.StealsOK
	c.ColoredStealsOK += o.ColoredStealsOK
	c.StealAttempts += o.StealAttempts
	c.ColoredAttempts += o.ColoredAttempts
	c.ColoredMisses += o.ColoredMisses
	c.FirstStealChecks += o.FirstStealChecks
	c.FirstStealForcedOK = c.FirstStealForcedOK || o.FirstStealForcedOK
	for t := range c.TierAttempts {
		c.TierAttempts[t] += o.TierAttempts[t]
		c.TierSteals[t] += o.TierSteals[t]
	}
	c.BatchOps += o.BatchOps
	c.BatchItems += o.BatchItems
}

func (c *Counters) counters() *Counters { return c }

// PerWorker is a run's per-worker records, indexed by worker id (= color):
// core's Workers, the simulator's sim.Workers. Its methods are the
// aggregates both machines report, written once over the records' shared
// Counters; P is *W, through which those are reached.
type PerWorker[W any, P interface {
	*W
	counters() *Counters
}] []W

// total returns every worker's Counters added together.
func (ws PerWorker[W, P]) total() Counters {
	var t Counters
	for i := range ws {
		t.add(P(&ws[i]).counters())
	}
	return t
}

// TotalNodes returns the number of tasks executed across all workers.
func (ws PerWorker[W, P]) TotalNodes() int64 { return ws.total().NodesExecuted }

// Accesses returns the merged locality counter.
func (ws PerWorker[W, P]) Accesses() numa.AccessCounter { return ws.total().Accesses }

// RemotePercent returns the percentage of node-level accesses that were
// remote (Fig. 7's y-axis).
func (ws PerWorker[W, P]) RemotePercent() float64 { return ws.Accesses().RemotePercent() }

// SuccessfulSteals returns total and colored successful steal counts.
func (ws PerWorker[W, P]) SuccessfulSteals() (total, colored int64) {
	t := ws.total()
	return t.StealsOK, t.ColoredStealsOK
}

// AvgSuccessfulSteals returns successful steals per worker (Fig. 8's
// y-axis).
func (ws PerWorker[W, P]) AvgSuccessfulSteals() float64 {
	if len(ws) == 0 {
		return 0
	}
	return float64(ws.total().StealsOK) / float64(len(ws))
}

// StealAttempts returns the total number of steal probes.
func (ws PerWorker[W, P]) StealAttempts() int64 { return ws.total().StealAttempts }

// FirstStealChecks returns the total enforcement probes (ΣC).
func (ws PerWorker[W, P]) FirstStealChecks() int64 { return ws.total().FirstStealChecks }

// TierAttempts returns the per-tier steal probe totals.
func (ws PerWorker[W, P]) TierAttempts() [NumStealTiers]int64 { return ws.total().TierAttempts }

// TierSteals returns the per-tier successful steal totals (batched steals
// count once).
func (ws PerWorker[W, P]) TierSteals() [NumStealTiers]int64 { return ws.total().TierSteals }

// TierHitRate returns the fraction of tier t's probes that stole work, or
// 0 when the tier was never tried.
func (ws PerWorker[W, P]) TierHitRate(t StealTier) float64 {
	s := ws.total()
	if s.TierAttempts[t] == 0 {
		return 0
	}
	return float64(s.TierSteals[t]) / float64(s.TierAttempts[t])
}

// SocketStealPercent returns the percentage of successful steals served
// from a same-socket victim (tiers 1-3), or 0 with no steals.
func (ws PerWorker[W, P]) SocketStealPercent() float64 {
	st := ws.TierSteals()
	sock := st[TierOwnColor] + st[TierSocketColored] + st[TierSocketRandom]
	total := sock + st[TierGlobalColored] + st[TierGlobalRandom]
	if total == 0 {
		return 0
	}
	return 100 * float64(sock) / float64(total)
}

// AvgBatchSize returns the mean number of items taken per batched steal,
// or 0 when no batched steal succeeded.
func (ws PerWorker[W, P]) AvgBatchSize() float64 {
	s := ws.total()
	if s.BatchOps == 0 {
		return 0
	}
	return float64(s.BatchItems) / float64(s.BatchOps)
}

// Metrics returns the named metrics both machines report for the
// structured report pipeline (internal/perf): locality, steal anatomy per
// tier, and batch sizes. sim.Result.Metrics adds the simulator's clock to
// it.
func (ws PerWorker[W, P]) Metrics() map[string]float64 {
	s := ws.total()
	m := map[string]float64{
		"nodes_executed":    float64(s.NodesExecuted),
		"remote_pct":        s.Accesses.RemotePercent(),
		"steals_per_worker": ws.AvgSuccessfulSteals(),
		"steal_attempts":    float64(s.StealAttempts),
		"socket_steal_pct":  ws.SocketStealPercent(),
		"avg_batch":         ws.AvgBatchSize(),
	}
	for t := StealTier(0); t < NumStealTiers; t++ {
		m["tier_attempts/"+t.String()] = float64(s.TierAttempts[t])
		m["tier_steals/"+t.String()] = float64(s.TierSteals[t])
	}
	return m
}

// WorkerStats records one real-engine worker's activity during a run: the
// Counters both machines keep, and the engine's wall clock and park
// protocol.
type WorkerStats struct {
	Counters

	// TimeToFirstWork is the wall-clock delay from run start until this
	// worker first executed anything (Fig. 9's idle time).
	TimeToFirstWork time.Duration
	// IdleTime is total wall-clock time spent looking for work.
	IdleTime time.Duration

	// SpinRounds counts completed unsuccessful probe sweeps: one per pass
	// through the stealing policy's full tier/victim sequence that found
	// nothing. Bounded spinning turns into a park, so on an idle engine
	// this stays small instead of growing with wall time.
	SpinRounds int64
	// Parks counts how many times this worker went to sleep on its notify
	// slot — after exhausting its spin budget mid-run, and once at the end
	// of every run while awaiting the next Execute.
	Parks int64
	// Wakes counts how many times a parked sleep was ended by a notify
	// (work pushed, run completion, engine close, or a new Execute).
	Wakes int64

	// Pushes counts the items this worker put on its deque: the halves
	// and colour groups it published, and the rest of a batched steal it
	// adopted. An engine-only figure, outside Counters: the simulator
	// publishes every half (eager splitting), the engine only those a
	// thief can use (see runGroup).
	Pushes int64

	// DequeGrows counts buffer growths of this worker's deque during the
	// run. A deque starts at 64 entries and keeps what it grows to, so a
	// deeper frontier than any before it costs growths once, on the
	// engine's first such run, and later runs read zero (pinned by the
	// root package's TestDequeGrowthFirstRunOnly).
	DequeGrows int64
}

// Workers is the real engine's per-worker record set; embedded in Stats,
// it lends Stats the shared aggregates (see PerWorker).
type Workers = PerWorker[WorkerStats, *WorkerStats]

// Stats aggregates a completed run.
type Stats struct {
	// GraphID is the engine-unique id of the run's graph (assigned at
	// admission, for both Execute and Submit).
	GraphID uint64
	// Workers holds per-worker counters, indexed by worker id (= color).
	// Execute populates it; Submit-mode stats leave it nil, because
	// workers interleave many in-flight graphs and per-worker activity
	// cannot be attributed to one submission.
	Workers
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// NodesCreated is the number of task-graph nodes materialized: created
	// on demand from the sink, or, on a replayed run, re-armed where the
	// last run left them. Either way it is the number of tasks of the graph.
	NodesCreated int
	// Replayed reports that the run created nothing: it was an Execute of
	// the sink the engine's node table had just served, in a run that
	// computed every node, and the table re-armed that run's nodes instead
	// of discovering them again (see doc.go's replay note). False for every
	// first run, every Submit, the run after a failed one, and
	// a spec that returns a fresh predecessor slice per call. Not part of
	// Metrics.
	Replayed bool
	// Topology is the topology the run was accounted against.
	Topology numa.Topology
	// Retries counts failed FallibleSpec attempts that were tried again
	// under Options.Retry (each failed-then-retried attempt counts once;
	// the final, exhausting failure does not).
	Retries int64
}

// DequeGrows returns the total deque buffer growths across all workers.
func (s *Stats) DequeGrows() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].DequeGrows
	}
	return n
}

// Parks returns total worker parks (see WorkerStats.Parks).
func (s *Stats) Parks() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].Parks
	}
	return n
}

// Wakes returns total parked-sleep wakeups.
func (s *Stats) Wakes() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].Wakes
	}
	return n
}

// SpinRounds returns total unsuccessful probe sweeps across all workers.
func (s *Stats) SpinRounds() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].SpinRounds
	}
	return n
}

// AvgTimeToFirstWork averages the per-worker delay until first work
// (Fig. 9's y-axis).
func (s *Stats) AvgTimeToFirstWork() time.Duration {
	if len(s.Workers) == 0 {
		return 0
	}
	var total time.Duration
	for i := range s.Workers {
		total += s.Workers[i].TimeToFirstWork
	}
	return total / time.Duration(len(s.Workers))
}
