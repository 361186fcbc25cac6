package core

import (
	"time"

	"nabbitc/internal/numa"
)

// WorkerStats records one worker's activity during a run. All counters
// are written only by the owning worker; read after the run completes.
type WorkerStats struct {
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
	// steal succeeded (vs. giving up after FirstStealMaxRounds).
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

	// DequeGrows counts buffer growths of this worker's deque during the
	// run. With a spec-declared key bound the initial capacity is sized
	// to cover the run, so this should stay zero (pinned by the root
	// package's TestRealHeatDequeSizing).
	DequeGrows int64
}

// Stats aggregates a completed run.
type Stats struct {
	// GraphID is the engine-unique id of the run's graph (assigned at
	// admission, for both Execute and Submit).
	GraphID uint64
	// Workers holds per-worker counters, indexed by worker id (= color).
	// Execute populates it; Submit-mode stats leave it nil, because
	// workers interleave many in-flight graphs and per-worker activity
	// cannot be attributed to one submission.
	Workers []WorkerStats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// NodesCreated is the number of task-graph nodes materialized: created
	// on demand from the sink, or, on a replayed run, re-armed where the
	// last run left them. Either way it is the number of tasks of the graph.
	NodesCreated int
	// Replayed reports that the run created nothing: it was an Execute of
	// the sink the engine's dense table had just served, in a run that
	// computed every node, and the table re-armed that run's nodes instead
	// of discovering them again (see doc.go's replay note). False for every
	// first run, every Submit, the sharded backend, the run after a failed
	// or degraded one, and a spec that returns a fresh predecessor slice
	// per call. Not part of Metrics.
	Replayed bool
	// NodeBackend names the node-table backend the run used ("dense" or
	// "sharded"; see Options.NodeTable).
	NodeBackend string
	// DequeBackend names the worker-deque substrate the run used
	// ("mutex", "chaselev", or "block"; see Policy.Deque/ResolveDeque).
	DequeBackend string
	// Topology is the topology the run was accounted against.
	Topology numa.Topology
	// Retries counts failed FallibleSpec attempts that were re-enqueued
	// under Options.Retry (each failed-then-retried attempt counts once;
	// the final, exhausting failure does not).
	Retries int64
	// TimedOut counts nodes the hang watchdog degraded after they overran
	// Options.NodeTimeout (only optional nodes within ErrorBudget can be
	// degraded; a non-optional timeout fails the run and produces no
	// Stats).
	TimedOut int
	// Skipped counts downstream nodes retired without executing because a
	// permanently failed optional ancestor poisoned their cone. The
	// failed ancestors themselves are listed in the run's *PartialError,
	// not counted here.
	Skipped int
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

// TotalNodes returns the number of tasks executed across all workers.
func (s *Stats) TotalNodes() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].NodesExecuted
	}
	return n
}

// Accesses returns the merged locality counter.
func (s *Stats) Accesses() numa.AccessCounter {
	var a numa.AccessCounter
	for i := range s.Workers {
		a.Merge(s.Workers[i].Accesses)
	}
	return a
}

// RemotePercent returns the percentage of node-level accesses that were
// remote.
func (s *Stats) RemotePercent() float64 { return s.Accesses().RemotePercent() }

// SuccessfulSteals returns total and colored successful steal counts.
func (s *Stats) SuccessfulSteals() (total, colored int64) {
	for i := range s.Workers {
		total += s.Workers[i].StealsOK
		colored += s.Workers[i].ColoredStealsOK
	}
	return
}

// AvgSuccessfulSteals returns successful steals per worker (Fig. 8's
// y-axis).
func (s *Stats) AvgSuccessfulSteals() float64 {
	if len(s.Workers) == 0 {
		return 0
	}
	total, _ := s.SuccessfulSteals()
	return float64(total) / float64(len(s.Workers))
}

// StealAttempts returns the total number of steal probes.
func (s *Stats) StealAttempts() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].StealAttempts
	}
	return n
}

// FirstStealChecks returns the total enforcement probes (ΣC).
func (s *Stats) FirstStealChecks() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].FirstStealChecks
	}
	return n
}

// TierAttempts returns the per-tier steal probe totals.
func (s *Stats) TierAttempts() [NumStealTiers]int64 {
	var out [NumStealTiers]int64
	for i := range s.Workers {
		for t := range out {
			out[t] += s.Workers[i].TierAttempts[t]
		}
	}
	return out
}

// TierSteals returns the per-tier successful steal totals (batched steals
// count once).
func (s *Stats) TierSteals() [NumStealTiers]int64 {
	var out [NumStealTiers]int64
	for i := range s.Workers {
		for t := range out {
			out[t] += s.Workers[i].TierSteals[t]
		}
	}
	return out
}

// TierHitRate returns the fraction of tier t's probes that stole work, or
// 0 when the tier was never tried.
func (s *Stats) TierHitRate(t StealTier) float64 {
	a, ok := s.TierAttempts(), s.TierSteals()
	if a[t] == 0 {
		return 0
	}
	return float64(ok[t]) / float64(a[t])
}

// SocketStealPercent returns the percentage of successful steals served
// from a same-socket victim (tiers 1-3), or 0 with no steals.
func (s *Stats) SocketStealPercent() float64 {
	st := s.TierSteals()
	sock := st[TierOwnColor] + st[TierSocketColored] + st[TierSocketRandom]
	total := sock + st[TierGlobalColored] + st[TierGlobalRandom]
	if total == 0 {
		return 0
	}
	return 100 * float64(sock) / float64(total)
}

// AvgBatchSize returns the mean number of items taken per batched steal,
// or 0 when no batched steal succeeded.
func (s *Stats) AvgBatchSize() float64 {
	var ops, items int64
	for i := range s.Workers {
		ops += s.Workers[i].BatchOps
		items += s.Workers[i].BatchItems
	}
	if ops == 0 {
		return 0
	}
	return float64(items) / float64(ops)
}

// Metrics returns the run's standard named-metric set for the structured
// report pipeline (internal/perf): wall-clock ns, locality fractions, and
// steal anatomy per tier. Names match sim.Result.Metrics where the two
// machines measure the same thing; wall_ns replaces makespan_cycles.
func (s *Stats) Metrics() map[string]float64 {
	m := map[string]float64{
		"wall_ns":           float64(s.Elapsed.Nanoseconds()),
		"nodes_executed":    float64(s.TotalNodes()),
		"remote_pct":        s.RemotePercent(),
		"steals_per_worker": s.AvgSuccessfulSteals(),
		"steal_attempts":    float64(s.StealAttempts()),
		"socket_steal_pct":  s.SocketStealPercent(),
		"avg_batch":         s.AvgBatchSize(),
		"parks":             float64(s.Parks()),
		"wakes":             float64(s.Wakes()),
		"spin_rounds":       float64(s.SpinRounds()),
	}
	at, ts := s.TierAttempts(), s.TierSteals()
	for t := StealTier(0); t < NumStealTiers; t++ {
		m["tier_attempts/"+t.String()] = float64(at[t])
		m["tier_steals/"+t.String()] = float64(ts[t])
	}
	return m
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
