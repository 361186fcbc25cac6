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
