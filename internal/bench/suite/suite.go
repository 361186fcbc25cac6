// Package suite wires the full Table I benchmark suite together. It lives
// apart from package bench so that individual benchmark packages can
// depend on bench's shared types without an import cycle.
package suite

import (
	"fmt"

	"nabbitc/internal/bench"
	"nabbitc/internal/bench/nas"
	"nabbitc/internal/bench/pagerank"
	"nabbitc/internal/bench/stencil"
	"nabbitc/internal/bench/sw"
)

type entry struct {
	name  string
	build func(bench.Scale) bench.Benchmark
	// real builds a fresh real-engine instance (live data on the host).
	real func(bench.Scale) bench.RealGraph
	// iterative records whether real's instances implement
	// bench.IterativeGraph — registry metadata so callers can select the
	// iterative subset without a throwaway build (TestIterativeFlags pins
	// the flag against the actual type).
	iterative bool
}

// Table I order.
var registry = []entry{
	{name: "cg",
		build: func(s bench.Scale) bench.Benchmark { return nas.CGBench(s) },
		real:  func(s bench.Scale) bench.RealGraph { return nas.CGBench(s).NewReal() }},
	{name: "mg",
		build: func(s bench.Scale) bench.Benchmark { return nas.MGBench(s) },
		real:  func(s bench.Scale) bench.RealGraph { return nas.MGBench(s).NewReal() }},
	{name: "heat", iterative: true,
		build: func(s bench.Scale) bench.Benchmark { return stencil.Heat(s) },
		real:  func(s bench.Scale) bench.RealGraph { return stencil.Heat(s).NewReal() }},
	{name: "fdtd", iterative: true,
		build: func(s bench.Scale) bench.Benchmark { return stencil.FDTD(s) },
		real:  func(s bench.Scale) bench.RealGraph { return stencil.FDTD(s).NewReal() }},
	{name: "life", iterative: true,
		build: func(s bench.Scale) bench.Benchmark { return stencil.Life(s) },
		real:  func(s bench.Scale) bench.RealGraph { return stencil.Life(s).NewReal() }},
	{name: "page-uk-2002", iterative: true,
		build: func(s bench.Scale) bench.Benchmark { return pagerank.UK2002(s) },
		real:  func(s bench.Scale) bench.RealGraph { return pagerank.UK2002(s).NewReal() }},
	{name: "page-twitter-2010", iterative: true,
		build: func(s bench.Scale) bench.Benchmark { return pagerank.Twitter2010(s) },
		real:  func(s bench.Scale) bench.RealGraph { return pagerank.Twitter2010(s).NewReal() }},
	{name: "page-uk-2007-05", iterative: true,
		build: func(s bench.Scale) bench.Benchmark { return pagerank.UK2007(s) },
		real:  func(s bench.Scale) bench.RealGraph { return pagerank.UK2007(s).NewReal() }},
	{name: "sw",
		build: func(s bench.Scale) bench.Benchmark { return sw.N3(s) },
		real:  func(s bench.Scale) bench.RealGraph { return sw.N3(s).NewReal() }},
	{name: "swn2",
		build: func(s bench.Scale) bench.Benchmark { return sw.N2(s) },
		real:  func(s bench.Scale) bench.RealGraph { return sw.N2(s).NewReal() }},
}

// Names returns the benchmark names in Table I order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Build constructs the named benchmark at the given scale.
func Build(name string, s bench.Scale) (bench.Benchmark, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build(s), nil
		}
	}
	return nil, fmt.Errorf("suite: unknown benchmark %q (have %v)", name, Names())
}

// BuildReal constructs a fresh wall-clock (real-engine) instance of the
// named benchmark at the given scale.
func BuildReal(name string, s bench.Scale) (bench.RealGraph, error) {
	for _, e := range registry {
		if e.name == name {
			return e.real(s), nil
		}
	}
	return nil, fmt.Errorf("suite: unknown benchmark %q (have %v)", name, Names())
}

// Iterative reports whether the named benchmark's wall-clock instances
// implement bench.IterativeGraph (the single-iteration formulation for
// persistent-engine reuse). Unknown names report false.
func Iterative(name string) bool {
	for _, e := range registry {
		if e.name == name {
			return e.iterative
		}
	}
	return false
}

// BuildAll constructs the whole suite at the given scale.
func BuildAll(s bench.Scale) []bench.Benchmark {
	out := make([]bench.Benchmark, len(registry))
	for i, e := range registry {
		out[i] = e.build(s)
	}
	return out
}
