// Package bench defines the paper's benchmark suite (Table I) in the four
// formulations the evaluation compares: a colored task graph for NabbitC,
// the same graph color-oblivious for Nabbit, and OpenMP-style static and
// guided loop nests.
//
// Each benchmark provides (a) a Model — a core.CostSpec task graph with
// footprints for the machine simulator, scaled down from the paper's
// problem sizes but preserving graph shape and node counts where feasible —
// and (b) Sweeps, the OpenMP loop formulation for the simulated
// static/guided baselines. Real executable kernels (actual stencils,
// PageRank, Smith–Waterman, CG, MG on real data) live in the
// sub-packages and are exercised by the integration tests, examples, and
// wall-clock benches.
package bench

import (
	"fmt"

	"nabbitc/internal/core"
	"nabbitc/internal/simomp"
)

// Info describes a benchmark for Table I.
type Info struct {
	// Name is the paper's benchmark id (cg, mg, heat, ...).
	Name string
	// Description matches Table I's description column.
	Description string
	// ProblemSize describes this reproduction's scaled configuration.
	ProblemSize string
	// Iterations is the outer iteration count.
	Iterations int
	// Nodes is the task-graph node count (excluding the artificial
	// sink), Table I's "Task graph nodes" column.
	Nodes int
}

// Benchmark is one row of Table I.
type Benchmark interface {
	// Info returns the benchmark's Table I row.
	Info() Info
	// Model returns the colored task graph (with simulator footprints)
	// for a p-worker machine, and its sink key.
	Model(p int) (core.CostSpec, core.Key)
	// Sweeps returns the OpenMP loop-nest formulation for p workers.
	Sweeps(p int) []simomp.Sweep
}

// RealGraph is a freshly allocated wall-clock instance of a benchmark: a
// task graph over live data on the host, runnable through the real engine
// (core.Run over Spec) or serially. Each benchmark sub-package's NewReal
// returns a concrete type satisfying this; the suite registry exposes them
// uniformly via suite.BuildReal for the harness's real-engine experiments.
type RealGraph interface {
	// Spec returns the executable task graph for p workers and its sink.
	Spec(p int) (core.CostSpec, core.Key)
	// RunSerial executes the kernel on one thread (the wall-clock
	// speedup denominator).
	RunSerial()
}

// IterativeGraph is a RealGraph that can alternatively run as one task
// graph per outer iteration — the persistent-engine formulation: build
// one core.Engine over StepSpec, then Execute once per step with Advance
// between steps. StepSpec's graph covers a single sweep (its blocks plus
// a sink), so the engine's node table, deques, and worker pool amortize
// across every iteration instead of being rebuilt per run. The final
// data (checksums etc.) must match the all-iterations RealGraph
// formulations exactly.
type IterativeGraph interface {
	RealGraph
	// StepSpec returns the single-iteration task graph for p workers and
	// its sink. The spec reads the instance's current step counter, so
	// the same spec value drives every iteration.
	StepSpec(p int) (core.CostSpec, core.Key)
	// Advance moves the instance to the next iteration. Call it between
	// Execute calls, never while one runs.
	Advance()
	// Steps returns the total iteration count.
	Steps() int
}

// FanInStepSpec builds the single-iteration task graph every iterative
// benchmark shares: keys 0..blocks-1 are the current iteration's
// mutually-independent block tasks (they read only state the previous
// Execute completed) and key blocks is the sink gathering them. Colors
// follow the matched static distribution (block b → b*p/blocks, sink 0),
// mirroring the whole-graph specs' iteration-0 row; compute and
// footprint are the per-benchmark callbacks (footprint may be nil for
// unit-cost tasks; neither is called for the sink).
func FanInStepSpec(blocks, p int, compute func(block int), footprint func(block int) core.Footprint) (core.CostSpec, core.Key) {
	sink := core.Key(blocks)
	// The sink's predecessor list is constant across iterations and
	// callers must not modify it, so one shared slice serves every
	// Execute — otherwise PredsFn would be the dominant recurring
	// allocation of the engine-reuse steady state.
	ps := make([]core.Key, blocks)
	for b := range ps {
		ps[b] = core.Key(b)
	}
	return core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			if k != sink {
				return nil
			}
			return ps
		},
		ColorFn: func(k core.Key) int {
			if k == sink {
				return 0
			}
			return int(k) * p / blocks
		},
		ComputeFn: func(k core.Key) {
			if k == sink {
				return
			}
			compute(int(k))
		},
		FootprintFn: func(k core.Key) core.Footprint {
			if k == sink || footprint == nil {
				return core.Footprint{Compute: 1}
			}
			return footprint(int(k))
		},
		BoundFn: func() int { return blocks + 1 },
	}, sink
}

// Irregular marks benchmarks whose per-task work is data-dependent, where
// the paper compares against both OpenMP schedules (only PageRank in the
// suite).
type Irregular interface {
	Irregular() bool
}

// IsIrregular reports whether b declares itself irregular.
func IsIrregular(b Benchmark) bool {
	ir, ok := b.(Irregular)
	return ok && ir.Irregular()
}

// BadColoring wraps the spec with the Table II ablation: every task
// reports a valid color belonging to a *different* NUMA domain (shifted by
// half the machine), so workers preferentially execute non-local tasks
// while the data stays at its true home.
func BadColoring(spec core.CostSpec, p int) core.CostSpec {
	return core.Recolored{Spec: spec, ColorFn: func(k core.Key) int {
		c := spec.Color(k)
		if c < 0 || c >= p {
			return c
		}
		return (c + p/2) % p
	}}
}

// InvalidColoring wraps the spec with the Table III ablation: every task
// reports a color no worker owns, so every colored steal attempt fails and
// only the colored-steal overhead remains.
func InvalidColoring(spec core.CostSpec) core.CostSpec {
	return core.Recolored{Spec: spec, ColorFn: func(core.Key) int { return -1 }}
}

// Scale selects how large the benchmark configurations are.
type Scale int

const (
	// ScaleSmall is for unit/integration tests: seconds of total sim
	// time across the full suite.
	ScaleSmall Scale = iota
	// ScaleDefault is the experiment scale used for EXPERIMENTS.md:
	// node counts match Table I where feasible.
	ScaleDefault
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleDefault:
		return "default"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// The suite registry lives in internal/bench/suite, which imports every
// benchmark sub-package; sub-packages import only this package for the
// shared types, avoiding an import cycle.
