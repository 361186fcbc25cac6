package core

import (
	"fmt"
	"runtime"

	"nabbitc/internal/numa"
)

// Policy selects between Nabbit and NabbitC behaviour and tunes the
// colored-steal protocol.
type Policy struct {
	// Colored enables NabbitC: color-aware spawn ordering (morphing
	// continuations) and colored steals. With Colored false the engine
	// is plain Nabbit: spawn order is the spec's order and every steal
	// is random.
	Colored bool
	// ColoredStealAttempts is the constant number of colored steal
	// attempts an idle worker makes before each random steal (the
	// paper's "constant number of colored steal attempts").
	ColoredStealAttempts int
	// ForceFirstColoredSteal requires each worker's first steal to be a
	// successful colored steal, bounded by FirstStealMaxRounds.
	ForceFirstColoredSteal bool
	// FirstStealMaxRounds bounds the enforcement of the first colored
	// steal: after this many sweeps of (Workers-1) colored attempts (see
	// FirstStealLimit) the worker gives up and reverts to the normal
	// policy. Without a bound an invalid coloring (Table III) would spin
	// forever.
	FirstStealMaxRounds int
	// Seed drives victim selection; runs with equal seeds and worker
	// counts make identical scheduling decisions in the simulator.
	Seed uint64

	// Hierarchical extends the flat colored-steal protocol with the
	// machine's socket structure. An idle worker walks a two-level victim
	// order, each tier with its own attempt budget, before falling back
	// to a random steal (StealPlan writes the order down; both machines
	// walk it):
	//
	//	1. same-color:         same-socket victims, top item must contain
	//	                       this worker's exact color (budget 2)
	//	2. same-socket colored: same-socket victims, top item must contain
	//	                       any color homed in this worker's socket
	//	                       (budget 2)
	//	3. same-socket random:  same-socket victims, any top item (budget 2)
	//	4. global colored:      any victim, exact color (budget:
	//	                       ColoredStealAttempts)
	//	5. global random:       any victim, any item
	//
	// Steals in tiers 4-5 whose victim sits in another socket are batched
	// (half the victim's deque, at most 8 items) to amortize remote-steal
	// latency. On a single-socket topology (the socket spans the whole
	// machine) tiers 1-3 are skipped and the protocol degenerates to the
	// flat one. The colored tiers (1, 2, 4) additionally require Colored.
	Hierarchical bool
}

// NabbitPolicy returns plain Nabbit: random stealing, color-oblivious.
func NabbitPolicy() Policy {
	return Policy{Colored: false, Seed: 1}
}

// NabbitCPolicy returns the paper's NabbitC configuration: colored steals
// with a small constant number of attempts before falling back to a random
// steal, and an enforced (bounded) first colored steal.
func NabbitCPolicy() Policy {
	return Policy{
		Colored:                true,
		ColoredStealAttempts:   4,
		ForceFirstColoredSteal: true,
		FirstStealMaxRounds:    64,
		Seed:                   1,
	}
}

// NabbitCHierPolicy returns NabbitC extended with the hierarchical
// (socket-tier) steal protocol and batched cross-socket steals.
func NabbitCHierPolicy() Policy {
	p := NabbitCPolicy()
	p.Hierarchical = true
	return p
}

// WithDefaults returns the policy with unset tunables filled in, exactly
// as the engines apply it. Both the real engine and the simulator
// normalize through this single function so their interpretations of a
// policy can never drift apart.
func (p Policy) WithDefaults() Policy {
	if p.Colored && p.ColoredStealAttempts <= 0 {
		p.ColoredStealAttempts = 4
	}
	if p.ForceFirstColoredSteal && p.FirstStealMaxRounds <= 0 {
		p.FirstStealMaxRounds = 64
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// FirstStealLimit is how many probes the enforced first colored steal
// makes on a machine of the given size before the worker gives up and
// walks its plan: FirstStealMaxRounds sweeps of workers-1 probes.
func (p Policy) FirstStealLimit(workers int) int64 {
	return int64(p.FirstStealMaxRounds) * int64(workers-1)
}

// NodeTableBackend is NewNodeStore's choice of slot rule, kept only for
// the benchmark module's node-store probes, which name it: the engine has
// one node table and picks the rule from the spec (see doc.go's node-table
// note). To be deleted once those probes name their rows by spec kind.
type NodeTableBackend int

const (
	// NodeTableDense indexes the spec's declared bound, as a run would.
	NodeTableDense NodeTableBackend = iota
	// NodeTableSharded ignores the bound: every key is its own slot.
	NodeTableSharded
)

// String names the slot rule.
func (b NodeTableBackend) String() string {
	switch b {
	case NodeTableSharded:
		return "sharded"
	case NodeTableDense:
		return "dense"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// RetryPolicy bounds how a FallibleSpec node's failed attempts are
// retried: the worker that owns the node calls ComputeErr again at once,
// with no backoff (see doc.go's transient-fault note).
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per node, including the
	// first. 0 defaults to 1: no retries, a ComputeErr failure immediately
	// fails the graph.
	MaxAttempts int
}

func (r RetryPolicy) withDefaults() (RetryPolicy, error) {
	if r.MaxAttempts < 0 {
		return r, fmt.Errorf("core: negative Retry.MaxAttempts %d", r.MaxAttempts)
	}
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 1
	}
	return r, nil
}

// Options configures a run of the real parallel engine.
type Options struct {
	// Workers is the number of scheduler workers (the paper's P). Each
	// worker has the unique color equal to its id. Defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// Policy selects Nabbit vs NabbitC behaviour.
	Policy Policy
	// Topology groups worker colors into NUMA domains for the locality
	// accounting; defaults to numa.Paper(Workers).
	Topology numa.Topology
	// OnComplete, if set, is called after each task computes, with the
	// executing worker's id — the schedule-recording hook the paper's
	// §V-B replay methodology uses. It is called concurrently, from worker
	// goroutines and from goroutines running a graph inside Ticket.Wait
	// (which report the id of the worker they borrowed), and must be safe
	// for concurrent use.
	OnComplete func(worker int, k Key)
	// MaxInflight bounds how many admitted graphs may be in flight at
	// once (Submit tickets not yet completed, plus any Execute in
	// progress). Admission beyond the bound blocks until a slot frees.
	// Defaults to 4 × Workers.
	MaxInflight int
	// Retry bounds how failed FallibleSpec attempts are retried (see
	// RetryPolicy). The zero value means no retries.
	Retry RetryPolicy
}

func (o Options) withDefaults() (Options, error) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * o.Workers
	}
	if o.Topology == (numa.Topology{}) {
		o.Topology = numa.Paper(o.Workers)
	}
	if o.Topology.Workers != o.Workers {
		return o, fmt.Errorf("core: topology describes %d workers, run has %d",
			o.Topology.Workers, o.Workers)
	}
	if err := o.Topology.Validate(); err != nil {
		return o, err
	}
	r, err := o.Retry.withDefaults()
	if err != nil {
		return o, err
	}
	o.Retry = r
	o.Policy = o.Policy.WithDefaults()
	return o, nil
}
