package harness

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"

	"nabbitc/internal/bench"
	"nabbitc/internal/bench/suite"
	"nabbitc/internal/core"
	"nabbitc/internal/perf"
)

// The persist experiment pins the persistent-engine (core.NewEngine /
// Execute / Close) properties into the structured report pipeline, using
// only deterministic measurements so it can live in the byte-compared
// sim-kind document:
//
//   - persist/reuse: per-iteration heap cost of repeated Execute on one
//     engine (heat single-sweep spec, 1 worker, bound declared; ReadMemStats
//     deltas with GC off, minimum across trials — the alloc experiment's
//     methodology). Steady-state iterations must stay at a small constant:
//     a rebuilt arena or node table would show hundreds of allocs. The
//     park/wake columns pin the idle protocol (a 1-worker run parks once
//     at the run boundary, wakes once per Execute, and never spins).
//   - persist/schedule-identity: repeated Execute calls produce the
//     byte-identical completion schedule (FNV-1a over the completion
//     sequence, 1 worker ⇒ deterministic), and the same schedule a fresh
//     single-use Run produces — engine reuse must not change scheduling.
//
// Wall-clock reuse numbers are inherently noisy and therefore live in the
// benchmark module instead (benchmarks/: the fine-grid workload is
// repeated Execute on one persistent engine).

// persistIterative builds the single-iteration formulation of the named
// benchmark (which must implement bench.IterativeGraph).
func persistIterative(name string, scale bench.Scale) (bench.IterativeGraph, error) {
	rg, err := suite.BuildReal(name, scale)
	if err != nil {
		return nil, err
	}
	ig, ok := rg.(bench.IterativeGraph)
	if !ok {
		return nil, fmt.Errorf("harness: benchmark %q has no single-iteration formulation", name)
	}
	return ig, nil
}

// persistReuseTable measures per-iteration allocations and park/wake
// counters of repeated Execute calls on one persistent engine.
func persistReuseTable(cfg Config) (*perf.Table, error) {
	iters := cfg.Iterations
	t := perf.NewTable("persist/reuse",
		fmt.Sprintf("Persist: per-iteration cost of engine reuse (heat, 1 worker, dense, %d iterations)", iters),
		"iteration",
		perf.M("allocs_run", "", perf.LowerIsBetter),
		perf.M("bytes_run", "B", perf.LowerIsBetter),
		perf.M("parks", "", perf.Neutral),
		perf.M("wakes", "", perf.Neutral),
		perf.M("spin_rounds", "", perf.LowerIsBetter))

	minMallocs := make([]uint64, iters)
	minBytes := make([]uint64, iters)
	parks := make([]int64, iters)
	wakes := make([]int64, iters)
	spins := make([]int64, iters)
	for i := range minMallocs {
		minMallocs[i], minBytes[i] = ^uint64(0), ^uint64(0)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for trial := 0; trial < allocMaxTrials; trial++ {
		ig, err := persistIterative("heat", cfg.Scale)
		if err != nil {
			return nil, err
		}
		spec, sink := ig.StepSpec(1)
		e, err := core.NewEngine(spec, core.Options{
			Workers: 1, Policy: cfg.policy(core.NabbitCPolicy()),
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < iters; i++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			st, err := e.Execute(sink)
			runtime.ReadMemStats(&after)
			if err != nil {
				e.Close()
				return nil, err
			}
			if d := after.Mallocs - before.Mallocs; d < minMallocs[i] {
				minMallocs[i] = d
			}
			if b := after.TotalAlloc - before.TotalAlloc; b < minBytes[i] {
				minBytes[i] = b
			}
			// Park/wake counters are deterministic for one worker; the
			// last trial simply overwrites identical values.
			parks[i], wakes[i], spins[i] = st.Parks(), st.Wakes(), st.SpinRounds()
			ig.Advance()
		}
		e.Close()
	}
	for i := 0; i < iters; i++ {
		t.AddRow(fmt.Sprintf("iter%d", i+1), map[string]float64{
			"allocs_run":  float64(minMallocs[i]),
			"bytes_run":   float64(minBytes[i]),
			"parks":       float64(parks[i]),
			"wakes":       float64(wakes[i]),
			"spin_rounds": float64(spins[i]),
		})
	}
	return t, nil
}

// persistScheduleTable pins schedule identity across Execute reuses (and
// against a fresh engine) as data, hashing each run's completion sequence
// ((worker, key) per task) through FNV-1a.
func persistScheduleTable(cfg Config) (*perf.Table, error) {
	iters := cfg.Iterations
	t := perf.NewTable("persist/schedule-identity",
		fmt.Sprintf("Persist (1 worker): schedules are identical across %d Execute reuses and vs a fresh engine", iters),
		"benchmark",
		perf.M("nodes_run", "", perf.Neutral),
		perf.M("iterations_match", "", perf.HigherIsBetter),
		perf.M("fresh_match", "", perf.HigherIsBetter))
	for _, name := range []string{"heat", "page-uk-2002"} {
		// OnComplete is fixed at engine construction; hash into a
		// swappable target so each Execute gets its own digest.
		h := fnv.New64a()
		var buf [16]byte
		record := func(w int, k core.Key) {
			for i := 0; i < 8; i++ {
				buf[i] = byte(uint64(w) >> (8 * i))
				buf[8+i] = byte(uint64(k) >> (8 * i))
			}
			h.Write(buf[:])
		}
		opts := core.Options{
			Workers: 1, Policy: cfg.policy(core.NabbitCPolicy()), OnComplete: record,
		}

		ig, err := persistIterative(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		spec, sink := ig.StepSpec(1)
		e, err := core.NewEngine(spec, opts)
		if err != nil {
			return nil, err
		}
		hashes := make([]uint64, iters)
		var nodes int64
		for i := 0; i < iters; i++ {
			h.Reset()
			st, err := e.Execute(sink)
			if err != nil {
				e.Close()
				return nil, err
			}
			hashes[i] = h.Sum64()
			nodes = st.TotalNodes()
			ig.Advance()
		}
		e.Close()

		iterMatch := 1.0
		for _, hv := range hashes[1:] {
			if hv != hashes[0] {
				iterMatch = 0
			}
		}

		// A fresh instance through the single-use wrapper must draw the
		// same schedule as the reused engine's first iteration.
		fresh, err := persistIterative(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		fspec, fsink := fresh.StepSpec(1)
		h.Reset()
		if _, err := core.Run(fspec, fsink, opts); err != nil {
			return nil, err
		}
		freshMatch := 0.0
		if h.Sum64() == hashes[0] {
			freshMatch = 1.0
		}

		t.AddRow(name, map[string]float64{
			"nodes_run":        float64(nodes),
			"iterations_match": iterMatch,
			"fresh_match":      freshMatch,
		})
	}
	return t, nil
}

// persistReport builds the persistent-engine ablation report.
func persistReport(cfg Config) (*perf.Report, error) {
	rep := cfg.newReport("persist")
	rt, err := persistReuseTable(cfg)
	if err != nil {
		return nil, err
	}
	rep.AddTable(rt)
	st, err := persistScheduleTable(cfg)
	if err != nil {
		return nil, err
	}
	rep.AddTable(st)
	return rep, nil
}
