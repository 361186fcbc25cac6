// Package sim is a deterministic discrete-event simulator of the machine
// the paper evaluates on: P workers grouped into NUMA domains, executing a
// Nabbit/NabbitC task graph under the same scheduling policies as the real
// engine in package core, but in virtual time.
//
// The host running this reproduction is a small UMA box and Go gives no
// control over thread placement, so wall-clock runs cannot exhibit the
// paper's 80-core NUMA behaviour. The simulator substitutes for the
// testbed (see the README's introduction): task costs come from an
// explicit footprint + cost model (local vs. remote byte costs), steals and
// scheduler bookkeeping are charged virtual time, and every run is
// bit-for-bit reproducible for a given seed. The scheduler logic — morphing
// continuations, colored steals, the forced first colored steal — mirrors
// core's engine decision for decision, and where the two share a rule they
// share its code. A worker's deque is the engine's ring (deque.Ring, here
// without the lock), a spawn is grouped by colour with core.Grouper, an
// item's mask is core.ItemColors and the kept half of a split is chosen by
// core.ContainsColor. The counting is shared too: a worker's record embeds
// core's counter block (core.Counters), each probe is recorded by its one
// recorder, and Result's aggregates are core.PerWorker's (see core's
// steal-plan design note).
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
// it (0.86 shifts a push over the sim-table1 pass, the Table I models on 80
// cores, where 94 % of the 3.3 M events are probes), and having been
// pushed last it goes behind every probe of equal time. "Nothing is
// stealable" is one comparison: the deques keep an engine-wide count of
// queued entries, and the earliest completion is the heap's head. That
// fast-forward is simulation efficiency only: deques fill only when a
// completion fires or a steal succeeds, and no steal succeeds while they
// are all empty, so every probe it skips would have failed; the probes it
// keeps, one per idle worker per completion, draw their victims and count
// as attempts like any other.
//
// Probes are the loop's common case, so they take the short way through
// it. While the ring's head is earlier than the heap's, the loop serves it
// directly. A probe draws its victim from the step it is on, or from the
// first-steal step each worker derives once. If the victim's deque is
// empty, as it is for most probes, the probe records its attempt, moves the
// sweep on and appends its successor to the ring. Only a non-empty victim
// costs a Steal, a batch decision and a domain check.
//
// A node's predecessors are summarised once, when the node is created, by
// the rule the engine uses (core.PredSummary): the colour they all share
// and the NUMA domain all their homes lie in. With one colour, grouping the
// list skips the Grouper. With one domain, the locality tally and the
// predecessors' access cost are one comparison and one multiplication,
// because an access cost depends on a home only through its domain. Only
// a list that mixes colours or domains asks the spec about each key.
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
	// One normalization shared with the real engine, so a policy can
	// never mean different things to the two machines.
	o.Policy = o.Policy.WithDefaults()
	return o, nil
}

// WorkerStats are per-simulated-worker counters: the core.Counters both
// machines keep, and the simulator's virtual clock.
type WorkerStats struct {
	core.Counters
	// TimeToFirstWork is virtual time until the worker first executed
	// anything; workers that never worked report the makespan.
	TimeToFirstWork int64
	// BusyTime is virtual time spent executing tasks and scheduler
	// bookkeeping; IdleTime is Makespan - BusyTime.
	BusyTime int64
}

// Workers is the simulator's per-worker record set; embedded in Result, it
// lends Result the aggregates both machines share (see core.PerWorker).
type Workers = core.PerWorker[WorkerStats, *WorkerStats]

// Result summarizes a simulated run.
type Result struct {
	// Makespan is the virtual completion time of the sink task.
	Makespan int64
	// Workers holds per-worker counters indexed by color.
	Workers
	// NodesCreated counts materialized task-graph nodes.
	NodesCreated int
	// Topology echoes the run's topology.
	Topology numa.Topology
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

// Metrics returns the run's standard named-metric set — the values the
// structured report pipeline (internal/perf) records for every simulated
// run: the shared set (core.PerWorker.Metrics) plus makespan cycles, the
// enforcement probes and the virtual time to first work.
func (r *Result) Metrics() map[string]float64 {
	m := r.Workers.Metrics()
	m["makespan_cycles"] = float64(r.Makespan)
	m["first_steal_checks"] = float64(r.FirstStealChecks())
	m["time_to_first_work_cycles"] = float64(r.AvgTimeToFirstWork())
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
