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
}

// Table I order.
var registry = []entry{
	{name: "cg", build: func(s bench.Scale) bench.Benchmark { return nas.CGBench(s) }},
	{name: "mg", build: func(s bench.Scale) bench.Benchmark { return nas.MGBench(s) }},
	{name: "heat", build: func(s bench.Scale) bench.Benchmark { return stencil.Heat(s) }},
	{name: "fdtd", build: func(s bench.Scale) bench.Benchmark { return stencil.FDTD(s) }},
	{name: "life", build: func(s bench.Scale) bench.Benchmark { return stencil.Life(s) }},
	{name: "page-uk-2002", build: func(s bench.Scale) bench.Benchmark { return pagerank.UK2002(s) }},
	{name: "page-twitter-2010", build: func(s bench.Scale) bench.Benchmark { return pagerank.Twitter2010(s) }},
	{name: "page-uk-2007-05", build: func(s bench.Scale) bench.Benchmark { return pagerank.UK2007(s) }},
	{name: "sw", build: func(s bench.Scale) bench.Benchmark { return sw.N3(s) }},
	{name: "swn2", build: func(s bench.Scale) bench.Benchmark { return sw.N2(s) }},
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

// BuildAll constructs the whole suite at the given scale.
func BuildAll(s bench.Scale) []bench.Benchmark {
	out := make([]bench.Benchmark, len(registry))
	for i, e := range registry {
		out[i] = e.build(s)
	}
	return out
}
