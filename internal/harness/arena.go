package harness

import (
	"fmt"
	"hash/fnv"

	"nabbitc/internal/bench/suite"
	"nabbitc/internal/core"
	"nabbitc/internal/perf"
	"nabbitc/internal/sim"
)

// The arena experiment surfaces the dense node-table backend against the
// sharded map in the structured report pipeline, with only deterministic
// measurements so it can live in the byte-compared sim-kind document:
//
//   - arena/getorcreate: allocs/op and bytes/op of the two backends'
//     create and lookup paths (ReadMemStats deltas, GC off — the same
//     methodology as the alloc experiment). The dense lookup row must
//     report exactly zero and the create row only the page slabs a fresh
//     store carves (about one allocation per thousand nodes); CI
//     additionally hard-gates the equivalent BenchmarkGetOrCreate numbers.
//   - arena/real-heat: whole-run heap allocations of the real engine on
//     the heat benchmark under each backend. One worker keeps the run —
//     and therefore its allocation sequence — fully deterministic.
//   - arena/schedule-identity: the load-bearing correctness claim, pinned
//     as data: simulated schedules (FNV-1a over the completion sequence)
//     and makespans are identical under both backends.

// arenaBound is the key universe of the getorcreate scenarios.
const arenaBound = allocIters

// arenaSpec is a minimal bounded spec: no predecessors, so the backends'
// own allocation behavior is measured, not the spec's.
func arenaSpec() core.FuncSpec {
	return core.FuncSpec{
		ColorFn: func(k core.Key) int { return int(k) % allocColors },
		BoundFn: func() int { return arenaBound },
	}
}

func arenaStore(backend core.NodeTableBackend) *core.NodeStore {
	s, err := core.NewNodeStore(arenaSpec(), allocColors, backend)
	if err != nil {
		panic(err) // arenaSpec is bounded; construction cannot fail
	}
	return s
}

// arenaScenarios enumerates the measured getorcreate paths.
func arenaScenarios() []struct {
	name    string
	expect  float64 // documented steady-state allocs/op bound
	backend core.NodeTableBackend
	lookup  bool
} {
	return []struct {
		name    string
		expect  float64
		backend core.NodeTableBackend
		lookup  bool
	}{
		{"dense/create", 0, core.NodeTableDense, false},
		{"dense/lookup", 0, core.NodeTableDense, true},
		// The sharded map boxes every node and grows its buckets: at
		// least one allocation per create, never zero.
		{"sharded/create", 1, core.NodeTableSharded, false},
		{"sharded/lookup", 0, core.NodeTableSharded, true},
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
			s := arenaStore(sc.backend)
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
// heat under each backend. A single worker makes the run deterministic
// (no steal races), so the numbers are stable enough for the byte-compared
// document; the drop from sharded to dense is the per-node &Node + map
// bookkeeping the arena eliminates.
func arenaRealHeatTable(cfg Config) (*perf.Table, error) {
	t := perf.NewTable("arena/real-heat",
		"Arena ablation: real-engine heat allocations per run (1 worker, deterministic)",
		"backend",
		perf.M("allocs_run", "", perf.LowerIsBetter),
		perf.M("bytes_run", "B", perf.LowerIsBetter))
	for _, backend := range []core.NodeTableBackend{core.NodeTableDense, core.NodeTableSharded} {
		backend := backend
		var runErr error
		setup := func() func() {
			r, err := suite.BuildReal("heat", cfg.Scale)
			if err != nil {
				runErr = err
				return func() {}
			}
			spec, sink := r.Spec(1)
			return func() {
				if _, err := core.Run(spec, sink, core.Options{
					Workers: 1, Policy: core.NabbitCPolicy(), NodeTable: backend,
				}); err != nil {
					runErr = err
				}
			}
		}
		allocs, bytes := measureAllocsSetup(setup, 1)
		if runErr != nil {
			return nil, runErr
		}
		t.AddRow(backend.String(), map[string]float64{
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

// arenaScheduleTable pins backend schedule identity on real benchmark
// graphs at the sweep's largest core count.
func arenaScheduleTable(cfg Config) (*perf.Table, error) {
	p := cfg.Cores[len(cfg.Cores)-1]
	t := perf.NewTable("arena/schedule-identity",
		fmt.Sprintf("Arena ablation (P=%d): sim schedules are identical under both backends", p),
		"benchmark",
		perf.M("makespan_dense", "cycles", perf.Neutral),
		perf.M("makespan_sharded", "cycles", perf.Neutral),
		perf.M("schedule_match", "", perf.HigherIsBetter))
	for _, name := range []string{"heat", "page-uk-2002"} {
		b, err := suite.Build(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		spec, sink := b.Model(p)
		opts := sim.Options{Workers: p, Policy: cfg.policy(core.NabbitCPolicy()), Cost: cfg.Cost}
		dOpts := opts
		dOpts.NodeTable = core.NodeTableDense
		sOpts := opts
		sOpts.NodeTable = core.NodeTableSharded
		dh, dres, err := scheduleHash(spec, sink, dOpts)
		if err != nil {
			return nil, err
		}
		sh, sres, err := scheduleHash(spec, sink, sOpts)
		if err != nil {
			return nil, err
		}
		// Divergence is recorded as data (schedule_match 0), not an
		// error: the baseline comparator and TestArenaReport both gate
		// on 1.0, so a break still fails loudly while the emitted
		// document shows what actually happened.
		match := 0.0
		if dh == sh {
			match = 1.0
		}
		t.AddRow(name, map[string]float64{
			"makespan_dense":   float64(dres.Makespan),
			"makespan_sharded": float64(sres.Makespan),
			"schedule_match":   match,
		})
	}
	return t, nil
}

// arenaReport builds the arena-vs-map ablation report.
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
