package harness

import (
	"fmt"
	"hash/fnv"

	"nabbitc/internal/bench/suite"
	"nabbitc/internal/core"
	"nabbitc/internal/perf"
	"nabbitc/internal/sim"
)

// The arena experiment surfaces the node table under its two slot rules —
// a spec's declared bound indexed (bounded), and the same spec with its
// bound hidden so every key is its own slot (unbounded) — in the
// structured report pipeline, with only deterministic measurements so it
// can live in the byte-compared sim-kind document:
//
//   - arena/getorcreate: allocs/op and bytes/op of the create and lookup
//     paths (ReadMemStats deltas, GC off — the same methodology as the
//     alloc experiment). The lookup rows must report exactly zero and the
//     create rows only the page slabs and directory levels a fresh store
//     carves (about one allocation per thousand nodes); CI additionally
//     hard-gates the equivalent BenchmarkGetOrCreate numbers.
//   - arena/real-heat: whole-run heap allocations of the real engine on
//     the heat benchmark under each rule. One worker keeps the run — and
//     therefore its allocation sequence — fully deterministic.
//   - arena/schedule-identity: the load-bearing correctness claim, pinned
//     as data: simulated schedules (FNV-1a over the completion sequence)
//     and makespans are identical whether or not the spec declares its
//     bound.

// arenaBound is the key universe of the getorcreate scenarios.
const arenaBound = allocIters

// arenaSpec is a minimal spec: no predecessors, so the table's own
// allocation behavior is measured, not the spec's. bounded declares the
// key bound.
func arenaSpec(bounded bool) core.FuncSpec {
	spec := core.FuncSpec{ColorFn: func(k core.Key) int { return int(k) % allocColors }}
	if bounded {
		spec.BoundFn = func() int { return arenaBound }
	}
	return spec
}

// hideBound returns spec with its declared key bound hidden. The benchmark
// suite's specs are FuncSpecs, so every other face stays as it was.
func hideBound(spec core.CostSpec) core.CostSpec {
	fs := spec.(core.FuncSpec)
	fs.BoundFn = nil
	return fs
}

func arenaStore(bounded bool) *core.NodeStore {
	s, err := core.NewNodeStore(arenaSpec(bounded), allocColors, core.NodeTableDense)
	if err != nil {
		panic(err) // allocColors >= 1; construction cannot fail
	}
	return s
}

// arenaScenarios enumerates the measured getorcreate paths.
func arenaScenarios() []struct {
	name    string
	expect  float64 // documented steady-state allocs/op bound
	bounded bool
	lookup  bool
} {
	return []struct {
		name    string
		expect  float64
		bounded bool
		lookup  bool
	}{
		{"bounded/create", 0, true, false},
		{"bounded/lookup", 0, true, true},
		{"unbounded/create", 0, false, false},
		{"unbounded/lookup", 0, false, true},
	}
}

func arenaGetOrCreateTable() *perf.Table {
	t := perf.NewTable("arena/getorcreate",
		"Arena ablation: heap allocations per node-table operation",
		"scenario",
		perf.M("allocs_op", "", perf.LowerIsBetter),
		perf.M("bytes_op", "B", perf.LowerIsBetter),
		perf.M("expected_allocs_op", "", perf.Neutral))
	for _, sc := range arenaScenarios() {
		sc := sc
		setup := func() func() {
			s := arenaStore(sc.bounded)
			if sc.lookup {
				for k := 0; k < arenaBound; k++ {
					s.GetOrCreate(core.Key(k))
				}
				k := 0
				return func() {
					s.GetOrCreate(core.Key(k % arenaBound))
					k++
				}
			}
			k := 0
			return func() {
				s.GetOrCreate(core.Key(k))
				k++
			}
		}
		allocs, bytes := measureAllocsSetup(setup, arenaBound)
		t.AddRow(sc.name, map[string]float64{
			"allocs_op":          allocs,
			"bytes_op":           bytes,
			"expected_allocs_op": sc.expect,
		})
	}
	return t
}

// arenaRealHeatTable measures whole-run allocations of the real engine on
// heat with its bound declared and hidden. A single worker makes the run
// deterministic (no steal races), so the numbers are stable enough for the
// byte-compared document.
func arenaRealHeatTable(cfg Config) (*perf.Table, error) {
	t := perf.NewTable("arena/real-heat",
		"Arena ablation: real-engine heat allocations per run (1 worker, deterministic)",
		"spec",
		perf.M("allocs_run", "", perf.LowerIsBetter),
		perf.M("bytes_run", "B", perf.LowerIsBetter))
	for _, kind := range []string{"bounded", "unbounded"} {
		var runErr error
		setup := func() func() {
			r, err := suite.BuildReal("heat", cfg.Scale)
			if err != nil {
				runErr = err
				return func() {}
			}
			spec, sink := r.Spec(1)
			if kind == "unbounded" {
				spec = hideBound(spec)
			}
			return func() {
				if _, err := core.Run(spec, sink, core.Options{
					Workers: 1, Policy: core.NabbitCPolicy(),
				}); err != nil {
					runErr = err
				}
			}
		}
		allocs, bytes := measureAllocsSetup(setup, 1)
		if runErr != nil {
			return nil, runErr
		}
		t.AddRow(kind, map[string]float64{
			"allocs_run": allocs,
			"bytes_run":  bytes,
		})
	}
	return t, nil
}

// scheduleHash runs the simulator and folds the exact completion sequence
// — (virtual time, worker, key) per task — through FNV-1a.
func scheduleHash(spec core.CostSpec, sink core.Key, opts sim.Options) (uint64, *sim.Result, error) {
	h := fnv.New64a()
	var buf [24]byte
	opts.OnComplete = func(t int64, w int, k core.Key) {
		put := func(off int, v uint64) {
			for i := 0; i < 8; i++ {
				buf[off+i] = byte(v >> (8 * i))
			}
		}
		put(0, uint64(t))
		put(8, uint64(w))
		put(16, uint64(k))
		h.Write(buf[:])
	}
	res, err := sim.Run(spec, sink, opts)
	if err != nil {
		return 0, nil, err
	}
	return h.Sum64(), res, nil
}

// arenaScheduleTable pins that a declared bound does not move a schedule,
// on real benchmark graphs at the sweep's largest core count.
func arenaScheduleTable(cfg Config) (*perf.Table, error) {
	p := cfg.Cores[len(cfg.Cores)-1]
	t := perf.NewTable("arena/schedule-identity",
		fmt.Sprintf("Arena ablation (P=%d): sim schedules are identical with the bound declared or hidden", p),
		"benchmark",
		perf.M("makespan_bounded", "cycles", perf.Neutral),
		perf.M("makespan_unbounded", "cycles", perf.Neutral),
		perf.M("schedule_match", "", perf.HigherIsBetter))
	for _, name := range []string{"heat", "page-uk-2002"} {
		b, err := suite.Build(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		spec, sink := b.Model(p)
		opts := sim.Options{Workers: p, Policy: cfg.policy(core.NabbitCPolicy()), Cost: cfg.Cost}
		bh, bres, err := scheduleHash(spec, sink, opts)
		if err != nil {
			return nil, err
		}
		uh, ures, err := scheduleHash(hideBound(spec), sink, opts)
		if err != nil {
			return nil, err
		}
		// Divergence is recorded as data (schedule_match 0), not an
		// error: the baseline comparator and TestArenaReport both gate
		// on 1.0, so a break still fails loudly while the emitted
		// document shows what actually happened.
		match := 0.0
		if bh == uh {
			match = 1.0
		}
		t.AddRow(name, map[string]float64{
			"makespan_bounded":   float64(bres.Makespan),
			"makespan_unbounded": float64(ures.Makespan),
			"schedule_match":     match,
		})
	}
	return t, nil
}

// arenaReport builds the bounded-vs-unbounded node-table report.
func arenaReport(cfg Config) (*perf.Report, error) {
	rep := cfg.newReport("arena")
	rep.AddTable(arenaGetOrCreateTable())
	rh, err := arenaRealHeatTable(cfg)
	if err != nil {
		return nil, err
	}
	rep.AddTable(rh)
	st, err := arenaScheduleTable(cfg)
	if err != nil {
		return nil, err
	}
	rep.AddTable(st)
	return rep, nil
}
