package core

import (
	"fmt"
	"runtime"
	"time"

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
	// steal: after this many sweeps of (Workers-1) colored attempts the
	// worker gives up and reverts to the normal policy. Without a bound
	// an invalid coloring (Table III) would spin forever.
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
	//	                       this worker's exact color
	//	2. same-socket colored: same-socket victims, top item must contain
	//	                       any color homed in this worker's socket
	//	3. same-socket random:  same-socket victims, any top item
	//	4. global colored:      any victim, exact color (budget:
	//	                       ColoredStealAttempts)
	//	5. global random:       any victim, any item
	//
	// Steals in tiers 4-5 whose victim sits in another socket are batched
	// (half the victim's deque, capped by StealBatch) to amortize
	// remote-steal latency. On a single-socket topology (the socket spans
	// the whole machine) tiers 1-3 are skipped and the protocol
	// degenerates to the flat one. The colored tiers (1, 2, 4)
	// additionally require Colored.
	Hierarchical bool
	// OwnColorStealAttempts is the tier-1 budget: same-socket probes for
	// the worker's exact color.
	OwnColorStealAttempts int
	// SocketColoredAttempts is the tier-2 budget: same-socket probes for
	// any color belonging to the worker's socket.
	SocketColoredAttempts int
	// SocketRandomAttempts is the tier-3 budget: color-oblivious probes
	// confined to same-socket victims.
	SocketRandomAttempts int
	// StealBatch caps how many items one batched cross-socket steal may
	// take (the steal takes min(ceil(len/2), StealBatch) items).
	StealBatch int
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
	p.OwnColorStealAttempts = 2
	p.SocketColoredAttempts = 2
	p.SocketRandomAttempts = 2
	p.StealBatch = 8
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
	if p.Hierarchical {
		if p.OwnColorStealAttempts <= 0 {
			p.OwnColorStealAttempts = 2
		}
		if p.SocketColoredAttempts <= 0 {
			p.SocketColoredAttempts = 2
		}
		if p.SocketRandomAttempts <= 0 {
			p.SocketRandomAttempts = 2
		}
		if p.StealBatch <= 0 {
			p.StealBatch = 8
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
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

// AdmissionPolicy selects what Submit does when MaxInflight graphs are
// already in flight.
type AdmissionPolicy int

const (
	// AdmissionBlock (the default) blocks Submit until an in-flight
	// graph completes and frees a slot (or the engine closes).
	AdmissionBlock AdmissionPolicy = iota
	// AdmissionReject makes Submit fail fast with ErrSaturated.
	AdmissionReject
)

// String names the admission policy.
func (a AdmissionPolicy) String() string {
	switch a {
	case AdmissionBlock:
		return "block"
	case AdmissionReject:
		return "reject"
	default:
		return fmt.Sprintf("admission(%d)", int(a))
	}
}

// MaxRetryAttempts caps RetryPolicy.MaxAttempts: the per-node attempt
// counter lives in 3 bits of the node lifecycle word (see node.go), so
// a node can fail at most 8 times before the budget is exhausted.
const MaxRetryAttempts = 8

// RetryPolicy bounds how a FallibleSpec node's failed attempts are
// retried. Backoff before attempt n (n ≥ 2) is
// BaseBackoff × Multiplier^(n-2), jittered by up to ±Jitter of itself
// with a deterministic hash of (engine seed, key, attempt) — equal
// seeds back off identically, keeping retried schedules reproducible.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per node, including the
	// first (≤ MaxRetryAttempts). 0 defaults to 1: no retries, a
	// ComputeErr failure immediately fails (or degrades) the graph.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; 0 re-enqueues
	// immediately.
	BaseBackoff time.Duration
	// Multiplier grows the backoff per subsequent retry; values < 1
	// (including unset) default to 2.
	Multiplier float64
	// Jitter is the fractional spread applied to each backoff, in
	// [0, 1]: the delay is scaled by a deterministic factor in
	// [1-Jitter, 1+Jitter].
	Jitter float64
}

func (r RetryPolicy) withDefaults() (RetryPolicy, error) {
	if r.MaxAttempts < 0 {
		return r, fmt.Errorf("core: negative Retry.MaxAttempts %d", r.MaxAttempts)
	}
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 1
	}
	if r.MaxAttempts > MaxRetryAttempts {
		return r, fmt.Errorf("core: Retry.MaxAttempts %d exceeds MaxRetryAttempts %d",
			r.MaxAttempts, MaxRetryAttempts)
	}
	if r.BaseBackoff < 0 {
		return r, fmt.Errorf("core: negative Retry.BaseBackoff %v", r.BaseBackoff)
	}
	if r.Jitter < 0 || r.Jitter > 1 {
		return r, fmt.Errorf("core: Retry.Jitter %v outside [0, 1]", r.Jitter)
	}
	if r.Multiplier < 1 {
		r.Multiplier = 2
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
	// progress). Admission beyond the bound blocks or rejects per
	// Admission. Defaults to 4 × Workers.
	MaxInflight int
	// Admission selects Submit's behavior at the MaxInflight bound:
	// AdmissionBlock (default) waits for a slot, AdmissionReject fails
	// fast with ErrSaturated. Execute always blocks.
	Admission AdmissionPolicy
	// Retry bounds how failed FallibleSpec attempts are retried (see
	// RetryPolicy). The zero value means no retries.
	Retry RetryPolicy
	// NodeTimeout, when positive, arms the hang watchdog: a node whose
	// compute runs longer than this fails (or, when optional and within
	// ErrorBudget, degrades) its owning graph with a *TimeoutError; the
	// stuck goroutine's eventual return is discarded harmlessly.
	NodeTimeout time.Duration
	// RunDeadline, when positive, bounds each run's total wall clock:
	// an overdue run fails with a *TimeoutError.
	RunDeadline time.Duration
	// ErrorBudget is the per-graph count of optional-node permanent
	// failures (exhausted retries or watchdog timeouts) the run absorbs
	// by skipping the node's downstream cone instead of failing; such a
	// run completes with Stats plus a *PartialError. 0 disables
	// degradation.
	ErrorBudget int
}

func (o Options) withDefaults() (Options, error) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * o.Workers
	}
	if o.Admission != AdmissionBlock && o.Admission != AdmissionReject {
		return o, fmt.Errorf("core: unknown admission policy %v", o.Admission)
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
	if o.NodeTimeout < 0 {
		return o, fmt.Errorf("core: negative NodeTimeout %v", o.NodeTimeout)
	}
	if o.RunDeadline < 0 {
		return o, fmt.Errorf("core: negative RunDeadline %v", o.RunDeadline)
	}
	if o.ErrorBudget < 0 {
		return o, fmt.Errorf("core: negative ErrorBudget %d", o.ErrorBudget)
	}
	o.Policy = o.Policy.WithDefaults()
	return o, nil
}
