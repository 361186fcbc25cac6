package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nabbitc/internal/bench"
	"nabbitc/internal/bench/suite"
	"nabbitc/internal/chaos"
	"nabbitc/internal/colorset"
	"nabbitc/internal/core"
	"nabbitc/internal/deque"
	"nabbitc/internal/numa"
	"nabbitc/internal/perf"
)

// WallclockConfig parameterizes the wall-clock (real-engine) perf runner.
type WallclockConfig struct {
	// Scale selects benchmark sizes (default bench.ScaleSmall — wall
	// clock runs are for trend tracking, not paper regeneration).
	Scale bench.Scale
	// Benchmarks restricts the suite (default: all of Table I).
	Benchmarks []string
	// Workers is the host worker count (default min(8, NumCPU)).
	Workers int
	// Repeats is how many times each configuration runs; the minimum
	// wall time is the headline number (default 3).
	Repeats int
	// Revision stamps the emitted document (e.g. a git short hash).
	Revision string
	// Seed, when nonzero, overrides the scheduling seed of every timed
	// policy (0 keeps each policy's default).
	Seed uint64
	// Deque, when not DequeAuto, overrides the deque backend of every
	// timed policy (auto keeps each policy's resolution: block for
	// hierarchical policies, mutex otherwise).
	Deque core.DequeBackend
	// Iterations is the outer iteration count of the persistent-engine
	// reuse rows (default 8); 0 keeps the default, negative disables the
	// persist table entirely.
	Iterations int
	// FaultRate, when FaultRateSet is true and the rate is positive,
	// arms chaos injection in the submit-throughput table: each cone
	// graph is poisoned with this probability and the run reports how
	// many graphs failed (the -fault-rate flag; see the sim-side retry
	// experiment for the deterministic face of the same machinery).
	FaultRate    float64
	FaultRateSet bool
	// FaultKinds, when non-empty, overrides the injected fault kinds
	// (default: transient only).
	FaultKinds []chaos.Kind
	// Retries, when positive, sets the per-node attempt budget
	// (core.RetryPolicy.MaxAttempts) of the fault-injected runs
	// (default 3).
	Retries int
	// now overrides the clock stamp in tests.
	now func() time.Time
}

func (c WallclockConfig) withDefaults() WallclockConfig {
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = suite.Names()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.Iterations == 0 {
		c.Iterations = 8
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// policy applies the config's seed and deque overrides to pol.
func (c WallclockConfig) policy(pol core.Policy) core.Policy {
	return applyDeque(applySeed(pol, c.Seed), c.Deque)
}

// wallclockPolicies are the scheduler variants the runner times, with the
// synthetic 2-core-socket topology that lets the hierarchical tiers
// engage on a UMA host.
func wallclockPolicies(workers int, seed uint64, dq core.DequeBackend) []struct {
	name string
	opts core.Options
} {
	stamp := func(p core.Policy) core.Policy { return applyDeque(applySeed(p, seed), dq) }
	return []struct {
		name string
		opts core.Options
	}{
		{"nabbit", core.Options{Workers: workers, Policy: stamp(core.NabbitPolicy())}},
		{"nabbitc", core.Options{Workers: workers, Policy: stamp(core.NabbitCPolicy())}},
		{"nabbitc-hier", core.Options{
			Workers:  workers,
			Policy:   stamp(core.NabbitCHierPolicy()),
			Topology: numa.Topology{Workers: workers, CoresPerDomain: 2},
		}},
	}
}

// WallclockReport runs the real-engine suite on host cores and aggregates
// it into the structured schema: per (benchmark, policy) rows of minimum/
// mean wall-clock ns, speedup over the serial kernel, and the engine's
// steal anatomy.
func WallclockReport(cfg WallclockConfig) (*perf.Report, error) {
	cfg = cfg.withDefaults()
	rep := &perf.Report{
		Experiment: "wallclock",
		Config: perf.RunConfig{
			Scale:      cfg.Scale.String(),
			Benchmarks: cfg.Benchmarks,
			Workers:    cfg.Workers,
			Repeats:    cfg.Repeats,
		},
	}
	for _, name := range cfg.Benchmarks {
		t := perf.NewTable("wallclock/"+name,
			fmt.Sprintf("Wall clock (%s): real engine on %d host workers, min of %d runs",
				name, cfg.Workers, cfg.Repeats),
			"run",
			perf.M("wall_ns_min", "ns", perf.LowerIsBetter),
			perf.M("wall_ns_mean", "ns", perf.Neutral),
			perf.M("speedup_vs_serial", "x", perf.HigherIsBetter),
			perf.M("nodes_executed", "", perf.Neutral),
			perf.M("steals_per_worker", "", perf.Neutral),
			perf.M("socket_steal_pct", "%", perf.Neutral),
			perf.M("avg_batch", "", perf.Neutral))

		// Serial baseline: the kernel itself, one thread, no engine.
		serialMin, serialMean, _, err := timeRuns(cfg.Repeats, func() (func() (*core.Stats, error), error) {
			r, err := suite.BuildReal(name, cfg.Scale)
			if err != nil {
				return nil, err
			}
			return func() (*core.Stats, error) {
				r.RunSerial()
				return nil, nil
			}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("wallclock %s serial: %w", name, err)
		}
		t.AddRow("serial", map[string]float64{
			"wall_ns_min":  float64(serialMin),
			"wall_ns_mean": float64(serialMean),
		})

		for _, pol := range wallclockPolicies(cfg.Workers, cfg.Seed, cfg.Deque) {
			pol := pol
			min, mean, last, err := timeRuns(cfg.Repeats, func() (func() (*core.Stats, error), error) {
				r, err := suite.BuildReal(name, cfg.Scale)
				if err != nil {
					return nil, err
				}
				spec, sink := r.Spec(cfg.Workers)
				return func() (*core.Stats, error) {
					return core.Run(spec, sink, pol.opts)
				}, nil
			})
			if err != nil {
				return nil, fmt.Errorf("wallclock %s/%s: %w", name, pol.name, err)
			}
			m := last.Metrics()
			t.AddRow(pol.name, map[string]float64{
				"wall_ns_min":       float64(min),
				"wall_ns_mean":      float64(mean),
				"speedup_vs_serial": float64(serialMin) / float64(min),
				"nodes_executed":    m["nodes_executed"],
				"steals_per_worker": m["steals_per_worker"],
				"socket_steal_pct":  m["socket_steal_pct"],
				"avg_batch":         m["avg_batch"],
			})
		}
		rep.AddTable(t)
	}
	if cfg.Iterations > 0 {
		pt, err := wallclockPersistTable(cfg)
		if err != nil {
			return nil, err
		}
		if pt != nil {
			rep.AddTable(pt)
		}
		st, err := wallclockSubmitTable(cfg)
		if err != nil {
			return nil, err
		}
		rep.AddTable(st)
	}
	kt, err := wallclockStealTable(cfg)
	if err != nil {
		return nil, err
	}
	rep.AddTable(kt)
	return rep, nil
}

// wallclockStealTable is the wall-clock face of the steal experiment:
// real concurrent thief goroutines drain one pre-filled deque per
// substrate, at 1/4/8 thieves, and the table reports steals/sec (best
// repeat) plus the measured claim CASes per stolen item. This is where
// the block substrate's single-CAS batch claim shows up as throughput:
// thieves contend on one CAS word per block instead of one per item. The
// scripted sim-side steal experiment pins the same arithmetic
// deterministically for the byte-compared baseline.
func wallclockStealTable(cfg WallclockConfig) (*perf.Table, error) {
	const fill = 1 << 16
	subs := stealSubstrates()
	metrics := make([]perf.Metric, 0, 2*len(subs))
	for _, s := range subs {
		metrics = append(metrics,
			perf.M("steals_per_sec_"+s.name, "1/s", perf.HigherIsBetter),
			perf.M("cas_per_item_"+s.name, "", perf.LowerIsBetter))
	}
	t := perf.NewTable("wallclock/steal",
		fmt.Sprintf("Wall clock: concurrent thief drain of %d items per deque, best of %d runs",
			fill, cfg.Repeats),
		"thieves", metrics...)
	for _, thieves := range []int{1, 4, 8} {
		row := make(map[string]float64, len(metrics))
		for _, s := range subs {
			var bestRate, bestCAS float64
			for rep := 0; rep < cfg.Repeats; rep++ {
				q := s.mk(fill)
				for j := 0; j < fill; j++ {
					q.PushBottom(deque.Entry[int]{
						Value:  j,
						Colors: colorset.Of(allocColors, j%allocColors),
					})
				}
				var casBase int64
				if c, ok := q.(casCounter); ok {
					casBase = c.StealCASes()
				}
				var stolen atomic.Int64
				var wg sync.WaitGroup
				start := time.Now()
				for i := 0; i < thieves; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							batch, out := q.Steal(nil, 0, nil)
							switch out {
							case deque.StealOK:
								stolen.Add(int64(len(batch)))
							case deque.StealEmpty:
								return
							}
						}
					}()
				}
				wg.Wait()
				wall := time.Since(start).Seconds()
				if got := stolen.Load(); got != fill {
					return nil, fmt.Errorf("wallclock steal %s/%d: drained %d items, want %d",
						s.name, thieves, got, fill)
				}
				if wall <= 0 {
					wall = 1e-9
				}
				if rate := float64(fill) / wall; rate > bestRate {
					bestRate = rate
					bestCAS = 0
					if c, ok := q.(casCounter); ok {
						bestCAS = float64(c.StealCASes()-casBase) / float64(fill)
					}
				}
			}
			row["steals_per_sec_"+s.name] = bestRate
			row["cas_per_item_"+s.name] = bestCAS
		}
		t.AddRow(itoa(thieves), row)
	}
	return t, nil
}

// wallclockSubmitTable is the multi-tenant throughput experiment: a
// swarm of caller goroutines pushes a fixed population of small disjoint
// cone graphs through one persistent engine via Submit/Wait, swept over
// MaxInflight. Each caller times its own graph from the moment Submit is
// offered to Wait's return, so admission queueing (blocking policy) is
// part of completion latency. graphs/sec comes from the best repeat's
// wall clock; p50/p99 from the latency distribution of that repeat. The
// saturation sweep shows where fairness breaks: as MaxInflight rises
// past the worker count, throughput plateaus while p99 — and the
// p99/p50 tail ratio — keeps growing, because workers interleave more
// graphs and each one's sink waits longer. Past that, throughput
// collapses outright: every in-flight graph holds its own node-table
// instance sized for the full key universe, so extreme tenancy pays a
// table-checkout footprint (arena construction, GC pressure, cache
// thrash) that dwarfs the graphs themselves — the table quantifies why
// MaxInflight defaults to a small multiple of the worker count.
func wallclockSubmitTable(cfg WallclockConfig) (*perf.Table, error) {
	const graphs, width = 1024, 16
	faultsOn := cfg.FaultRateSet && cfg.FaultRate > 0
	metrics := []perf.Metric{
		perf.M("graphs_per_sec", "1/s", perf.HigherIsBetter),
		perf.M("p50_us", "us", perf.LowerIsBetter),
		perf.M("p99_us", "us", perf.LowerIsBetter),
		perf.M("p99_over_p50", "x", perf.LowerIsBetter),
		perf.M("wall_ns_min", "ns", perf.LowerIsBetter),
	}
	caption := fmt.Sprintf("Wall clock: Submit/Wait throughput, %d cone graphs (width %d) on %d workers, best of %d runs",
		graphs, width, cfg.Workers, cfg.Repeats)
	var plan *chaos.Plan
	attempts := cfg.Retries
	if attempts <= 0 {
		attempts = 3
	}
	if faultsOn {
		kinds := cfg.FaultKinds
		if len(kinds) == 0 {
			kinds = []chaos.Kind{chaos.Transient}
		}
		plan = chaos.NewPlan(0xDECAF5EED, cfg.FaultRate, kinds...)
		metrics = append(metrics,
			perf.M("failed_graphs", "", perf.LowerIsBetter),
			perf.M("retries_total", "", perf.Neutral))
		caption += fmt.Sprintf(", chaos rate %.2g, MaxAttempts %d", cfg.FaultRate, attempts)
	}
	t := perf.NewTable("wallclock/submit", caption, "max_inflight", metrics...)
	pol := cfg.policy(core.NabbitCPolicy())
	for _, inflight := range []int{1, 8, 32, 128} {
		opts := core.Options{Workers: cfg.Workers, Policy: pol, MaxInflight: inflight}
		if faultsOn {
			opts.Retry = core.RetryPolicy{MaxAttempts: attempts}
		}
		var wallMin int64
		var lat []time.Duration
		var failedBest, retriesBest int64
		for rep := 0; rep < cfg.Repeats; rep++ {
			spec := submitConeSpec(graphs, width, cfg.Workers, nil)
			if faultsOn {
				// A fresh injector per repeat resets the transient
				// attempt counters, so every repeat faults identically.
				inj := &chaos.Injector{Plan: plan, Stride: width + 1}
				spec.ComputeErrFn = inj.ComputeErr(nil)
			}
			e, err := core.NewEngine(spec, opts)
			if err != nil {
				return nil, err
			}
			repLat := make([]time.Duration, graphs)
			errs := make([]error, graphs)
			stats := make([]*core.Stats, graphs)
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < graphs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					t0 := time.Now()
					tk, err := e.Submit(submitConeSink(g, width))
					if err != nil {
						errs[g] = err
						return
					}
					stats[g], errs[g] = tk.Wait()
					repLat[g] = time.Since(t0)
				}(g)
			}
			wg.Wait()
			wall := time.Since(start).Nanoseconds()
			e.Close()
			var failed, retries int64
			for g, err := range errs {
				if err != nil {
					if !faultsOn {
						return nil, fmt.Errorf("wallclock submit inflight=%d graph %d: %w", inflight, g, err)
					}
					failed++
				}
				if st := stats[g]; st != nil {
					retries += st.Retries
				}
			}
			if rep == 0 || wall < wallMin {
				wallMin, lat = wall, repLat
				failedBest, retriesBest = failed, retries
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50 := float64(lat[graphs/2].Microseconds())
		p99 := float64(lat[graphs*99/100].Microseconds())
		ratio := 0.0
		if p50 > 0 {
			ratio = p99 / p50
		}
		row := map[string]float64{
			"graphs_per_sec": float64(graphs) / (float64(wallMin) / 1e9),
			"p50_us":         p50,
			"p99_us":         p99,
			"p99_over_p50":   ratio,
			"wall_ns_min":    float64(wallMin),
		}
		if faultsOn {
			row["failed_graphs"] = float64(failedBest)
			row["retries_total"] = float64(retriesBest)
		}
		t.AddRow(itoa(inflight), row)
	}
	return t, nil
}

// wallclockPersistTable times the iterative benchmarks both ways: one
// persistent engine executing Iterations single-sweep graphs (reuse) vs
// one fresh single-use Run per sweep (fresh). The ratio is the wall-clock
// payoff of engine reuse; parks confirm idle workers actually sleep.
// Returns nil when none of the configured benchmarks are iterative.
func wallclockPersistTable(cfg WallclockConfig) (*perf.Table, error) {
	t := perf.NewTable("wallclock/persist",
		fmt.Sprintf("Wall clock: persistent-engine reuse vs fresh engines (%d iterations, %d workers, min of %d runs)",
			cfg.Iterations, cfg.Workers, cfg.Repeats),
		"benchmark",
		perf.M("reuse_wall_ns_min", "ns", perf.LowerIsBetter),
		perf.M("fresh_wall_ns_min", "ns", perf.Neutral),
		perf.M("fresh_vs_reuse", "x", perf.HigherIsBetter),
		perf.M("parks", "", perf.Neutral))
	rows := 0
	for _, name := range cfg.Benchmarks {
		if !suite.Iterative(name) {
			continue
		}
		pol := cfg.policy(core.NabbitCPolicy())

		var parks int64
		reuseMin, _, _, err := timeRuns(cfg.Repeats, func() (func() (*core.Stats, error), error) {
			rg, err := suite.BuildReal(name, cfg.Scale)
			if err != nil {
				return nil, err
			}
			ig := rg.(bench.IterativeGraph)
			spec, sink := ig.StepSpec(cfg.Workers)
			return func() (*core.Stats, error) {
				e, err := core.NewEngine(spec, core.Options{Workers: cfg.Workers, Policy: pol})
				if err != nil {
					return nil, err
				}
				defer e.Close()
				var last *core.Stats
				for i := 0; i < cfg.Iterations; i++ {
					st, err := e.Execute(sink)
					if err != nil {
						return nil, err
					}
					last = st
					ig.Advance()
				}
				parks += last.Parks()
				return last, nil
			}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("wallclock persist %s/reuse: %w", name, err)
		}

		freshMin, _, _, err := timeRuns(cfg.Repeats, func() (func() (*core.Stats, error), error) {
			rg, err := suite.BuildReal(name, cfg.Scale)
			if err != nil {
				return nil, err
			}
			ig := rg.(bench.IterativeGraph)
			spec, sink := ig.StepSpec(cfg.Workers)
			return func() (*core.Stats, error) {
				var last *core.Stats
				for i := 0; i < cfg.Iterations; i++ {
					st, err := core.Run(spec, sink, core.Options{Workers: cfg.Workers, Policy: pol})
					if err != nil {
						return nil, err
					}
					last = st
					ig.Advance()
				}
				return last, nil
			}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("wallclock persist %s/fresh: %w", name, err)
		}

		t.AddRow(name, map[string]float64{
			"reuse_wall_ns_min": float64(reuseMin),
			"fresh_wall_ns_min": float64(freshMin),
			"fresh_vs_reuse":    float64(freshMin) / float64(reuseMin),
			"parks":             float64(parks) / float64(cfg.Repeats),
		})
		rows++
	}
	if rows == 0 {
		return nil, nil
	}
	return t, nil
}

// WallclockDocument wraps the wall-clock report in a stamped document
// (kind "wallclock"): the BENCH_<rev>.json payload.
func WallclockDocument(cfg WallclockConfig) (*perf.Document, error) {
	cfg = cfg.withDefaults()
	rep, err := WallclockReport(cfg)
	if err != nil {
		return nil, err
	}
	doc := perf.NewDocument(perf.KindWallclock)
	doc.Revision = cfg.Revision
	doc.CreatedAt = cfg.now().UTC().Format(time.RFC3339)
	doc.AddReport(rep)
	return doc, nil
}

// timeRuns calls setup (untimed: benchmark construction, graph
// generation) then times the returned run closure, repeats times. It
// returns the minimum and mean elapsed ns over the runs and the last
// run's stats (nil when the run reports none), so only the scheduler —
// not data-structure construction — lands in the wall-clock metrics.
func timeRuns(repeats int, setup func() (func() (*core.Stats, error), error)) (min, mean int64, last *core.Stats, err error) {
	var total int64
	for i := 0; i < repeats; i++ {
		run, err := setup()
		if err != nil {
			return 0, 0, nil, err
		}
		start := time.Now()
		st, err := run()
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return 0, 0, nil, err
		}
		if elapsed < 1 {
			elapsed = 1 // keep ratios finite on a too-fast clock
		}
		if st != nil {
			last = st
		}
		total += elapsed
		if i == 0 || elapsed < min {
			min = elapsed
		}
	}
	return min, total / int64(repeats), last, nil
}
