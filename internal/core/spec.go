package core

import "nabbitc/internal/numa"

// Key names a task. Keys are chosen by the application; the only
// requirement is that distinct tasks have distinct keys.
type Key int64

// Spec describes a task graph to the scheduler. Implementations must be
// safe for concurrent use: the scheduler calls these methods from all
// workers.
//
// This is the Go rendering of the paper's DynamicNabbitNode abstract
// class: Predecessors corresponds to the node's predecessor key list,
// Compute to compute() (init() folds into node creation), and Color to the
// color() function that is the single extension NabbitC asks of the user.
type Spec interface {
	// Predecessors returns the keys of the tasks that must complete
	// before k may execute. It is called once per node per discovery, on
	// the worker that creates the node, and once per re-armed node between
	// runs, on the goroutine calling Execute, so it must be cheap. The
	// engine keeps the returned slice for as long as the node may be
	// replayed and takes a later call that returns the very same slice
	// (same array, same length) to mean the same predecessors: a spec must
	// never rewrite a slice it has returned. One that builds a new slice
	// per call is fine, and simply is never replayed (see Engine.Execute).
	Predecessors(k Key) []Key
	// Color returns the color of task k: the worker whose memory is the
	// most efficient location to execute k. Colors outside the worker
	// range are permitted (they disable locality for that task, which
	// the Table III ablation exploits). The engine keeps colors (and
	// homes) as int32, so values must fit one.
	Color(k Key) int
	// Compute performs the task. It runs exactly once per task, after
	// all predecessors have computed.
	Compute(k Key)
}

// Footprint describes the memory a task touches, for the simulator's cost
// model. All byte counts are per task execution.
type Footprint struct {
	// Compute is location-independent work in abstract units.
	Compute int64
	// OwnBytes are homed at the task's own color (its input block).
	OwnBytes int64
	// PredBytes are homed at each predecessor's color; the simulator
	// charges this amount once per predecessor edge.
	PredBytes int64
	// SpreadBytes are spread uniformly across all NUMA domains —
	// irregular traffic no scheduler can localize (e.g. PageRank edge
	// scatter).
	SpreadBytes int64
}

// CostSpec is implemented by specs that can describe task footprints; the
// simulator requires it, the real engine ignores it.
type CostSpec interface {
	Spec
	// FootprintOf returns the memory/compute footprint of task k.
	FootprintOf(k Key) Footprint
}

// FallibleSpec is implemented by specs whose tasks can fail without
// panicking. When a spec implements it, the engine calls ComputeErr
// instead of Compute; a non-nil return marks the attempt failed and the
// node's worker calls it again at once, under Options.Retry, until the
// attempt budget is exhausted, at which point the run fails with a
// *ComputeError. A failed task fails its graph: a task whose loss the
// graph can absorb records its failure in the spec's own state and
// returns nil, and its successors read that state (see doc.go's failure
// note).
//
// ComputeErr must be idempotent up to its own side effects: a failed
// attempt may have run partially, and the engine re-invokes it from
// scratch. Panics inside ComputeErr keep panic semantics (no retry).
type FallibleSpec interface {
	Spec
	// ComputeErr performs task k, returning nil on success. It runs
	// once per attempt; attempts beyond the first happen only after a
	// previous attempt returned an error.
	ComputeErr(k Key) error
}

// HomeSpec is implemented by specs whose data placement differs from the
// coloring reported to the scheduler. Color is the *hint* the scheduler
// acts on; Home is where the data actually lives, which drives access
// costs and remote-access accounting. For a correct coloring the two
// coincide and specs need not implement this interface; the bad-coloring
// ablation (Table II) reports wrong colors while the data stays put.
type HomeSpec interface {
	Spec
	// Home returns the color whose memory actually holds task k's data.
	Home(k Key) int
}

// HomeOf returns the true data home of task k: Home when the spec
// implements HomeSpec, otherwise its color.
func HomeOf(s Spec, k Key) int {
	if hs, ok := s.(HomeSpec); ok {
		return hs.Home(k)
	}
	return s.Color(k)
}

// BoundedSpec is implemented by specs whose key universe is a bounded
// dense integer range: every key the graph can name lies in
// [0, KeyBound()). Every spec gets the same node table either way (see
// doc.go); a bound of up to 2^21 keys buys it a record per key, so that
// node slots are laid out home-major (tasks whose data lives at the same
// colour are contiguous) and a lookup is one record load away from its
// page, and any bound sizes the worker deques up front. A key outside the
// declared bound is a spec error the engine reports. A KeyBound() <= 0
// means "unbounded" — the spec behaves as if the interface were absent.
//
// Color (and Home, when implemented) must be total over the whole range —
// they are evaluated for every key in [0, KeyBound()) at engine
// construction, including keys the graph never reaches. Predecessors is
// still only called for keys actually named.
type BoundedSpec interface {
	Spec
	// KeyBound returns the exclusive upper bound of the key universe,
	// or <= 0 when the universe is unbounded.
	KeyBound() int
}

// KeyBoundOf returns the spec's declared key bound, or 0 when the spec is
// unbounded (no BoundedSpec, or a non-positive bound).
func KeyBoundOf(s Spec) int {
	bs, ok := s.(BoundedSpec)
	if !ok {
		return 0
	}
	b := bs.KeyBound()
	if b < 0 {
		return 0
	}
	return b
}

// Cost converts a footprint into virtual time for a task of color home
// executed by a worker of color w, excluding per-node/per-edge scheduler
// overheads (the engine charges those separately).
func (f Footprint) Cost(m numa.CostModel, t numa.Topology, w, home int, npreds int, predColor func(i int) int) int64 {
	c := int64(float64(f.Compute) * m.ComputeUnitCost)
	c += m.AccessCost(t, w, home, f.OwnBytes)
	if f.PredBytes > 0 {
		for i := 0; i < npreds; i++ {
			c += m.AccessCost(t, w, predColor(i), f.PredBytes)
		}
	}
	c += m.SpreadAccessCost(t, f.SpreadBytes)
	return c
}

// FuncSpec adapts plain functions to the Spec and CostSpec interfaces,
// convenient for tests, examples, and benchmark definitions.
type FuncSpec struct {
	PredsFn     func(Key) []Key
	ColorFn     func(Key) int
	ComputeFn   func(Key)
	FootprintFn func(Key) Footprint
	// ComputeErrFn, when set, makes the spec's tasks fallible (see
	// FallibleSpec): the engine calls it instead of ComputeFn and
	// retries non-nil returns under Options.Retry. When nil, ComputeErr
	// runs ComputeFn and reports success.
	ComputeErrFn func(Key) error
	// BoundFn, when set, declares the dense key universe [0, BoundFn())
	// (see BoundedSpec); nil or non-positive means unbounded.
	BoundFn func() int
}

// Predecessors implements Spec.
func (s FuncSpec) Predecessors(k Key) []Key {
	if s.PredsFn == nil {
		return nil
	}
	return s.PredsFn(k)
}

// Color implements Spec.
func (s FuncSpec) Color(k Key) int {
	if s.ColorFn == nil {
		return 0
	}
	return s.ColorFn(k)
}

// Compute implements Spec.
func (s FuncSpec) Compute(k Key) {
	if s.ComputeFn != nil {
		s.ComputeFn(k)
	}
}

// ComputeErr implements FallibleSpec; a nil ComputeErrFn falls back to
// Compute and always succeeds.
func (s FuncSpec) ComputeErr(k Key) error {
	if s.ComputeErrFn == nil {
		s.Compute(k)
		return nil
	}
	return s.ComputeErrFn(k)
}

// FootprintOf implements CostSpec.
func (s FuncSpec) FootprintOf(k Key) Footprint {
	if s.FootprintFn == nil {
		return Footprint{Compute: 1}
	}
	return s.FootprintFn(k)
}

// KeyBound implements BoundedSpec; a nil BoundFn means unbounded.
func (s FuncSpec) KeyBound() int {
	if s.BoundFn == nil {
		return 0
	}
	return s.BoundFn()
}

// Recolored wraps a spec, replacing its coloring — used by the bad- and
// invalid-coloring ablations (Tables II and III) and by examples that
// compare colorings.
type Recolored struct {
	Spec
	ColorFn func(Key) int
}

// Color implements Spec using the replacement coloring.
func (r Recolored) Color(k Key) int { return r.ColorFn(k) }

// Home implements HomeSpec: recoloring changes the hint the scheduler
// sees, not where the data was initialized — that mismatch is exactly why
// a bad coloring hurts.
func (r Recolored) Home(k Key) int { return HomeOf(r.Spec, k) }

// FootprintOf forwards to the wrapped spec when it is a CostSpec; the
// footprint of a task does not change when it is recolored.
func (r Recolored) FootprintOf(k Key) Footprint {
	if cs, ok := r.Spec.(CostSpec); ok {
		return cs.FootprintOf(k)
	}
	return Footprint{Compute: 1}
}

// KeyBound forwards the wrapped spec's bound: recoloring changes colors,
// not the key universe.
func (r Recolored) KeyBound() int { return KeyBoundOf(r.Spec) }
