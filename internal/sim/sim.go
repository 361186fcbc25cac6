// Package sim is a deterministic discrete-event simulator of the machine
// the paper evaluates on: P workers grouped into NUMA domains, executing a
// Nabbit/NabbitC task graph under the same scheduling policies as the real
// engine in package core, but in virtual time.
//
// The host running this reproduction is a small UMA box and Go gives no
// control over thread placement, so wall-clock runs cannot exhibit the
// paper's 80-core NUMA behaviour. The simulator substitutes for the
// testbed (see DESIGN.md): task costs come from an explicit footprint +
// cost model (local vs. remote byte costs), steals and scheduler
// bookkeeping are charged virtual time, and every run is bit-for-bit
// reproducible for a given seed. The scheduler logic — morphing
// continuations, colored steals, the forced first colored steal — mirrors
// core's engine decision for decision.
//
// The event loop. A simulated worker is executing a task, hunting, or
// stopped, so it has at most one pending event: the completion of its task
// or its next steal probe. Events fire in (time, push order) order out of
// two queues, whichever head is earlier: completions wait in a binary
// heap, probes in a ring kept sorted by insertion from the tail. That
// insertion is O(1) here because of when probes are scheduled — one
// StealAttemptCost after the clock, or, when nothing is stealable, one
// cycle after the earliest pending completion, a time every idle worker
// then shares — so a new probe belongs at the tail or a slot or two before
// it (0.87 shifts a push on the 80-core Table I models, where 94 % of
// events are probes), and having been pushed last it goes behind every
// probe of equal time. "Nothing is stealable" is one comparison: the
// deques keep an engine-wide count of queued entries, and the earliest
// completion is the heap's head. That fast-forward is simulation
// efficiency only: deques fill only when a completion fires or a steal
// succeeds, and no steal succeeds while they are all empty, so every probe
// it skips would have failed; the probes it keeps, one per idle worker per
// completion, draw their victims and count as attempts like any other.
//
// The directive below opts the whole package into nabbitvet's
// nodeterminism analyzer: wall clocks, math/rand, map iteration, and
// goroutine spawns are compile-time errors here, because any of them
// would silently break the byte-identical-schedule guarantee the
// checked-in baseline (and the paper's locality claims) are validated
// against.
//
//nabbit:deterministic
package sim

import (
	"fmt"

	"nabbitc/internal/core"
	"nabbitc/internal/numa"
)

// Options configures a simulated run.
type Options struct {
	// Workers is the simulated core count (the paper sweeps 1..80).
	Workers int
	// Policy selects Nabbit vs NabbitC, exactly as for the real engine.
	Policy core.Policy
	// Topology defaults to numa.Paper(Workers): domains of 10 cores.
	Topology numa.Topology
	// Cost defaults to numa.DefaultCostModel().
	Cost numa.CostModel
	// OnComplete, if set, is called at each task completion with the
	// virtual completion time and the executing worker — the hook the
	// harness uses to replay schedules and that tests use to verify
	// dependence order.
	OnComplete func(virtualTime int64, worker int, k core.Key)
	// NodeTable mirrors core.Options.NodeTable: dense arena for bounded
	// specs (default auto) or the map fallback. The choice never affects
	// scheduling decisions — schedules are byte-identical across backends
	// (pinned by a property test) — only the storage the deterministic
	// machine mirrors.
	NodeTable core.NodeTableBackend
	// Deadline, when positive, bounds the run's virtual time: the run
	// fails with a *core.TimeoutError as soon as an event would fire
	// past the budget — the simulator's mirror of core's
	// Options.RunDeadline. The error's Limit carries the budget's
	// integer value (virtual cycles, not nanoseconds).
	Deadline int64
	// SkipUnreachable, when set, converts a dependence deadlock (event
	// queue drained with the sink never computed — a cycle or an
	// unsatisfiable predecessor) into a degraded completion: the partial
	// Result is returned together with a *core.PartialError listing the
	// never-computed nodes as skipped — the simulator's mirror of core's
	// graceful degradation. When unset such a run fails with a
	// *core.StallError, as before.
	SkipUnreachable bool
}

func (o Options) withDefaults() (Options, error) {
	if o.Workers <= 0 {
		return o, fmt.Errorf("sim: Workers = %d, need > 0", o.Workers)
	}
	if o.Topology == (numa.Topology{}) {
		o.Topology = numa.Paper(o.Workers)
	}
	if o.Topology.Workers != o.Workers {
		return o, fmt.Errorf("sim: topology describes %d workers, run has %d",
			o.Topology.Workers, o.Workers)
	}
	if err := o.Topology.Validate(); err != nil {
		return o, err
	}
	if o.Cost == (numa.CostModel{}) {
		o.Cost = numa.DefaultCostModel()
	}
	if err := o.Cost.Validate(); err != nil {
		return o, err
	}
	if o.Policy.Deque < core.DequeAuto || o.Policy.Deque > core.DequeChaseLev {
		return o, fmt.Errorf("sim: unknown deque backend %v", o.Policy.Deque)
	}
	if o.Deadline < 0 {
		return o, fmt.Errorf("sim: negative Deadline %d", o.Deadline)
	}
	o.Policy = policyWithDefaults(o.Policy)
	return o, nil
}

func policyWithDefaults(p core.Policy) core.Policy {
	// One normalization shared with the real engine, so a policy can
	// never mean different things to the two machines.
	return p.WithDefaults()
}

// WorkerStats are per-simulated-worker counters; times are virtual.
type WorkerStats struct {
	NodesExecuted   int64
	OwnColorNodes   int64
	Accesses        numa.AccessCounter
	StealsOK        int64
	ColoredStealsOK int64
	StealAttempts   int64
	ColoredAttempts int64
	ColoredMisses   int64
	// FirstStealChecks is the paper's per-worker C term.
	FirstStealChecks   int64
	FirstStealForcedOK bool
	// TierAttempts/TierSteals break probes down by hierarchy tier, and
	// BatchOps/BatchItems record batched (steal-half) transfers — the
	// same counters the real engine keeps in core.WorkerStats.
	TierAttempts [core.NumStealTiers]int64
	TierSteals   [core.NumStealTiers]int64
	BatchOps     int64
	BatchItems   int64
	// TimeToFirstWork is virtual time until the worker first executed
	// anything; workers that never worked report the makespan.
	TimeToFirstWork int64
	// BusyTime is virtual time spent executing tasks and scheduler
	// bookkeeping; IdleTime is Makespan - BusyTime.
	BusyTime int64
}

// Result summarizes a simulated run.
type Result struct {
	// Makespan is the virtual completion time of the sink task.
	Makespan int64
	// Workers holds per-worker counters indexed by color.
	Workers []WorkerStats
	// NodesCreated counts materialized task-graph nodes.
	NodesCreated int
	// Topology echoes the run's topology.
	Topology numa.Topology
}

// TotalNodes returns the number of executed tasks.
func (r *Result) TotalNodes() int64 {
	var n int64
	for i := range r.Workers {
		n += r.Workers[i].NodesExecuted
	}
	return n
}

// Accesses merges the per-worker locality counters.
func (r *Result) Accesses() numa.AccessCounter {
	var a numa.AccessCounter
	for i := range r.Workers {
		a.Merge(r.Workers[i].Accesses)
	}
	return a
}

// RemotePercent returns the percentage of node-level accesses that were
// remote (Fig. 7's y-axis).
func (r *Result) RemotePercent() float64 { return r.Accesses().RemotePercent() }

// SuccessfulSteals returns total and colored successful steals.
func (r *Result) SuccessfulSteals() (total, colored int64) {
	for i := range r.Workers {
		total += r.Workers[i].StealsOK
		colored += r.Workers[i].ColoredStealsOK
	}
	return
}

// AvgSuccessfulSteals returns successful steals per worker (Fig. 8).
func (r *Result) AvgSuccessfulSteals() float64 {
	if len(r.Workers) == 0 {
		return 0
	}
	total, _ := r.SuccessfulSteals()
	return float64(total) / float64(len(r.Workers))
}

// AvgTimeToFirstWork returns the mean virtual delay before first work
// (Fig. 9).
func (r *Result) AvgTimeToFirstWork() int64 {
	if len(r.Workers) == 0 {
		return 0
	}
	var total int64
	for i := range r.Workers {
		total += r.Workers[i].TimeToFirstWork
	}
	return total / int64(len(r.Workers))
}

// TierAttempts returns the per-tier steal probe totals.
func (r *Result) TierAttempts() [core.NumStealTiers]int64 {
	var out [core.NumStealTiers]int64
	for i := range r.Workers {
		for t := range out {
			out[t] += r.Workers[i].TierAttempts[t]
		}
	}
	return out
}

// TierSteals returns the per-tier successful steal totals (batched steals
// count once).
func (r *Result) TierSteals() [core.NumStealTiers]int64 {
	var out [core.NumStealTiers]int64
	for i := range r.Workers {
		for t := range out {
			out[t] += r.Workers[i].TierSteals[t]
		}
	}
	return out
}

// TierHitRate returns the fraction of tier t's probes that stole work, or
// 0 when the tier was never tried.
func (r *Result) TierHitRate(t core.StealTier) float64 {
	a, ok := r.TierAttempts(), r.TierSteals()
	if a[t] == 0 {
		return 0
	}
	return float64(ok[t]) / float64(a[t])
}

// SocketStealPercent returns the percentage of successful steals served by
// a same-socket victim (tiers 1-3), or 0 with no steals.
func (r *Result) SocketStealPercent() float64 {
	st := r.TierSteals()
	sock := st[core.TierOwnColor] + st[core.TierSocketColored] + st[core.TierSocketRandom]
	total := sock + st[core.TierGlobalColored] + st[core.TierGlobalRandom]
	if total == 0 {
		return 0
	}
	return 100 * float64(sock) / float64(total)
}

// AvgBatchSize returns the mean items per successful batched steal, or 0
// when none succeeded.
func (r *Result) AvgBatchSize() float64 {
	var ops, items int64
	for i := range r.Workers {
		ops += r.Workers[i].BatchOps
		items += r.Workers[i].BatchItems
	}
	if ops == 0 {
		return 0
	}
	return float64(items) / float64(ops)
}

// StealAttempts returns the total number of steal probes.
func (r *Result) StealAttempts() int64 {
	var n int64
	for i := range r.Workers {
		n += r.Workers[i].StealAttempts
	}
	return n
}

// FirstStealChecks returns the total enforcement probes (ΣC).
func (r *Result) FirstStealChecks() int64 {
	var n int64
	for i := range r.Workers {
		n += r.Workers[i].FirstStealChecks
	}
	return n
}

// Metrics returns the run's standard named-metric set — the values the
// structured report pipeline (internal/perf) records for every simulated
// run: makespan cycles, locality fractions, steal anatomy per tier, and
// batch sizes. Names match core.Stats.Metrics so sim and wall-clock
// documents share a vocabulary.
func (r *Result) Metrics() map[string]float64 {
	m := map[string]float64{
		"makespan_cycles":           float64(r.Makespan),
		"nodes_executed":            float64(r.TotalNodes()),
		"remote_pct":                r.RemotePercent(),
		"steals_per_worker":         r.AvgSuccessfulSteals(),
		"steal_attempts":            float64(r.StealAttempts()),
		"first_steal_checks":        float64(r.FirstStealChecks()),
		"time_to_first_work_cycles": float64(r.AvgTimeToFirstWork()),
		"socket_steal_pct":          r.SocketStealPercent(),
		"avg_batch":                 r.AvgBatchSize(),
	}
	at, ts := r.TierAttempts(), r.TierSteals()
	for t := core.StealTier(0); t < core.NumStealTiers; t++ {
		m["tier_attempts/"+t.String()] = float64(at[t])
		m["tier_steals/"+t.String()] = float64(ts[t])
	}
	return m
}

// SerialTime returns the virtual time a single worker with all data local
// takes to execute the graph: the T1 baseline for speedup, matching the
// paper's serial runs where a single thread first-touches all of its data.
// Scheduler overheads are excluded, as a serial loop has none.
func SerialTime(spec core.CostSpec, sink core.Key, m numa.CostModel) (int64, error) {
	order, err := core.TopoOrder(spec, sink, 0)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, k := range order {
		fp := spec.FootprintOf(k)
		bytes := fp.OwnBytes + fp.SpreadBytes +
			fp.PredBytes*int64(len(spec.Predecessors(k)))
		total += int64(float64(fp.Compute)*m.ComputeUnitCost) +
			int64(float64(bytes)*m.LocalByteCost)
	}
	return total, nil
}
