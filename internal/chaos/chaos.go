// Package chaos provides deterministic fault injection for the engine's
// failure model: a seeded Plan assigns each graph of a workload at most
// one fault — a panic inside Compute, an artificial delay, a
// cancellation fired from inside Compute, a hard or transient compute
// error, or a hang — as a pure function of (seed, graph index). The
// same seed always poisons the same graphs at the same nodes, so the
// -race stress tests are reproducible, and a plan at rate 0 is
// byte-for-byte a no-op.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nabbitc/internal/core"
	"nabbitc/internal/xrand"
)

// ErrInjected classifies every error fault the injector produces, so
// tests and reports can tell injected failures from real ones with
// errors.Is.
var ErrInjected = errors.New("chaos: injected compute error")

// Kind is the fault injected into one graph.
type Kind int

const (
	// None leaves the graph healthy.
	None Kind = iota
	// Panic makes the target node's Compute panic with a Value payload.
	Panic
	// Delay makes the target node's Compute sleep briefly — a
	// perturbation, not a failure; the graph still completes.
	Delay
	// Cancel invokes the injector's OnCancel hook from inside the
	// target node's Compute, modelling a tenant abandoning its graph
	// mid-flight.
	Cancel
	// Error makes the target node's ComputeErr fail (wrapping
	// ErrInjected) on every attempt: retries never help, so the graph
	// fails with an exhausted-budget *core.ComputeError.
	Error
	// Transient makes the target node's ComputeErr fail its first
	// Injector.TransientFails attempts and then succeed — the
	// retry-layer workhorse: with MaxAttempts > TransientFails the graph
	// completes and Stats.Retries counts exactly the injected failures.
	Transient
	// Hang blocks the target node's compute, holding its worker: a run with
	// a Hang fault ends only at its context's deadline (or a Cancel). With
	// Injector.HangCh set it blocks until the channel is released and then
	// fails (wrapping ErrInjected) without running the body; with no channel
	// it is a bounded stall of Injector.HangDur after which the node
	// computes normally. See Injector.HangCh.
	Hang
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Cancel:
		return "cancel"
	case Error:
		return "error"
	case Transient:
		return "transient"
	case Hang:
		return "hang"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is the payload a chaos-injected panic carries, identifying the
// poisoned graph and node so tests can verify the value round-trips
// through core.ComputeError untouched.
type Value struct {
	Graph int
	Key   core.Key
}

func (v Value) String() string {
	return fmt.Sprintf("chaos: injected panic in graph %d at node %d", v.Graph, v.Key)
}

// Plan deterministically assigns faults to graph indices: graph g is
// poisoned with probability rate (decided by hashing seed and g), and a
// poisoned graph's fault kind and target node rotate among the plan's
// kinds by the same hashing. Plans are immutable and safe for concurrent
// use.
type Plan struct {
	seed  uint64
	rate  float64
	kinds []Kind
}

// NewPlan builds a plan poisoning roughly rate of all graphs with faults
// drawn from kinds. rate 0 (or no kinds) yields a plan that never
// injects anything.
func NewPlan(seed uint64, rate float64, kinds ...Kind) *Plan {
	return &Plan{seed: seed, rate: rate, kinds: kinds}
}

// hash is a SplitMix64 draw keyed by (seed, graph, salt) — stateless, so
// every query about a graph is independent of query order.
func (p *Plan) hash(graph int, salt uint64) uint64 {
	s := p.seed ^ (uint64(graph)+1)*0x9e3779b97f4a7c15 ^ salt
	return xrand.SplitMix64(&s)
}

// Fault returns the fault assigned to graph (None for healthy graphs).
func (p *Plan) Fault(graph int) Kind {
	if len(p.kinds) == 0 || p.rate <= 0 {
		return None
	}
	// 53 uniform bits → [0,1): the standard float draw, fixed per graph.
	if float64(p.hash(graph, 0xfa)>>11)/(1<<53) >= p.rate {
		return None
	}
	return p.kinds[p.hash(graph, 0x95)%uint64(len(p.kinds))]
}

// Target returns the ordinal (in [0, nodes)) of the node within graph
// that the graph's fault strikes.
func (p *Plan) Target(graph, nodes int) int {
	if nodes <= 0 {
		return 0
	}
	return int(p.hash(graph, 0x7a) % uint64(nodes))
}

// DefaultDelay is the injected sleep for Delay faults when the Injector
// does not override it: long enough to perturb scheduling interleavings,
// short enough to keep chaos runs fast.
const DefaultDelay = 50 * time.Microsecond

// DefaultTransientFails is how many attempts a Transient fault fails
// before succeeding, when the Injector does not override it.
const DefaultTransientFails = 2

// DefaultHangDur is the blocked duration of a Hang fault when the
// Injector provides no HangCh override: long beside a node's compute,
// short enough that an engine whose runs carry no deadline still drains.
const DefaultHangDur = 50 * time.Millisecond

// Injector wires a Plan into a spec whose keys form a forest of
// per-graph ranges: key k belongs to graph k/Stride at ordinal k%Stride
// (the cone-forest layout the multi-tenant tests use). Wrap the spec's
// Compute with Injector.Compute; the target node of each poisoned graph
// then panics, sleeps, or triggers OnCancel before the base compute runs.
type Injector struct {
	Plan   *Plan
	Stride int
	// OnCancel handles Cancel faults (e.g. call the graph's
	// context.CancelFunc or Ticket.Cancel). A nil OnCancel turns Cancel
	// faults into no-ops.
	OnCancel func(graph int)
	// Delay overrides DefaultDelay for Delay faults when positive.
	Delay time.Duration
	// TransientFails overrides DefaultTransientFails for Transient
	// faults when positive: the number of attempts that fail before the
	// node succeeds.
	TransientFails int
	// HangCh, when set, is what Hang faults block on — tests close it
	// to release every stuck compute at a chosen moment. A released hang
	// returns an error wrapping ErrInjected and never runs the base
	// body: a hang is released only after its graph's context deadline
	// (or a Cancel) has failed it, the engine drops the late return, and
	// a body that ran anyway would race whatever census the caller takes
	// of the dead graph. When nil, Hang sleeps HangDur (or
	// DefaultHangDur) and then computes normally, so a run without a
	// deadline still completes the graph.
	HangCh <-chan struct{}
	// HangDur overrides DefaultHangDur for channel-less Hang faults
	// when positive.
	HangDur time.Duration

	// mu guards attempts, the per-key failed-attempt counts behind
	// Transient faults (lazily allocated: plans without Transient never
	// touch it).
	mu       sync.Mutex
	attempts map[core.Key]int
}

// Compute wraps base with the injector's faults; base may be nil. Kinds
// that need the fallible path to be survivable (Error, Transient)
// degrade to panics here — a plain Spec has no error channel, so the
// panic-isolation boundary is where they land.
func (in *Injector) Compute(base func(core.Key)) func(core.Key) {
	fn := in.ComputeErr(base)
	return func(k core.Key) {
		if err := fn(k); err != nil {
			panic(Value{Graph: int(k) / in.Stride, Key: k})
		}
	}
}

// ComputeErr wraps base as a FallibleSpec compute: Error and Transient
// faults return errors wrapping ErrInjected (Transient succeeding once
// its budgeted failures are spent), Hang blocks (failing the same way
// once a HangCh releases it — see Injector.HangCh), and the panic-era
// kinds behave exactly as in Compute. base may be nil.
func (in *Injector) ComputeErr(base func(core.Key)) func(core.Key) error {
	return func(k core.Key) error {
		g, ord := int(k)/in.Stride, int(k)%in.Stride
		if fault := in.Plan.Fault(g); fault != None && ord == in.Plan.Target(g, in.Stride) {
			switch fault {
			case Panic:
				panic(Value{Graph: g, Key: k})
			case Delay:
				d := in.Delay
				if d <= 0 {
					d = DefaultDelay
				}
				time.Sleep(d)
			case Cancel:
				if in.OnCancel != nil {
					in.OnCancel(g)
				}
			case Error:
				return fmt.Errorf("graph %d node %d: %w", g, k, ErrInjected)
			case Transient:
				tf := in.TransientFails
				if tf <= 0 {
					tf = DefaultTransientFails
				}
				if in.failAttempt(k) <= tf {
					return fmt.Errorf("graph %d node %d transient: %w", g, k, ErrInjected)
				}
			case Hang:
				if in.HangCh != nil {
					<-in.HangCh
					return fmt.Errorf("graph %d node %d released hang: %w", g, k, ErrInjected)
				}
				d := in.HangDur
				if d <= 0 {
					d = DefaultHangDur
				}
				time.Sleep(d)
			}
		}
		if base != nil {
			base(k)
		}
		return nil
	}
}

// failAttempt counts one attempt at a Transient-faulted key and returns
// the running total.
func (in *Injector) failAttempt(k core.Key) int {
	in.mu.Lock()
	if in.attempts == nil {
		in.attempts = make(map[core.Key]int)
	}
	in.attempts[k]++
	n := in.attempts[k]
	in.mu.Unlock()
	return n
}
