// Package nabbitc's root benchmark harness: one testing.B benchmark per
// table/figure of the paper (driving the deterministic machine simulator
// at small scale), plus wall-clock benches of the real engine on the host.
//
// Regenerate full-scale experiment output with:
//
//	go run ./cmd/nabbitbench -experiment all | tee experiments.txt
package nabbitc

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/bench/pagerank"
	"nabbitc/internal/bench/stencil"
	"nabbitc/internal/bench/suite"
	"nabbitc/internal/bench/sw"
	"nabbitc/internal/colorset"
	"nabbitc/internal/core"
	"nabbitc/internal/deque"
	"nabbitc/internal/harness"
	"nabbitc/internal/numa"
	"nabbitc/internal/omp"
	"nabbitc/internal/sim"
	"nabbitc/internal/simomp"
)

func harnessCfg() harness.Config {
	return harness.Config{
		Scale:      bench.ScaleSmall,
		Cores:      []int{1, 20, 80},
		Benchmarks: []string{"heat", "page-uk-2002", "sw"},
		Out:        io.Discard,
	}
}

// BenchmarkTable1 regenerates the benchmark-configuration table.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run("table1", harnessCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates a speedup-vs-cores sweep.
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run("fig6", harnessCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the remote-access percentages.
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run("fig7", harnessCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the successful-steal comparison.
func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run("fig8", harnessCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates the first-steal idle-time series.
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run("fig9", harnessCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the bad-coloring ablation.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run("table2", harnessCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the invalid-coloring ablation.
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run("table3", harnessCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHier regenerates the hierarchical-stealing ablation.
func BenchmarkHier(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run("hier", harnessCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSim measures one simulated run of the named benchmark.
func benchSim(b *testing.B, name string, p int, pol core.Policy) {
	b.ReportAllocs()
	bm, err := suite.Build(name, bench.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	spec, sink := bm.Model(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(spec, sink, sim.Options{Workers: p, Policy: pol}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimHeatNabbit80(b *testing.B)  { benchSim(b, "heat", 80, core.NabbitPolicy()) }
func BenchmarkSimHeatNabbitC80(b *testing.B) { benchSim(b, "heat", 80, core.NabbitCPolicy()) }
func BenchmarkSimPageUKNabbitC80(b *testing.B) {
	benchSim(b, "page-uk-2002", 80, core.NabbitCPolicy())
}
func BenchmarkSimHeatNabbitCHier80(b *testing.B) {
	benchSim(b, "heat", 80, core.NabbitCHierPolicy())
}
func BenchmarkSimPageUKNabbitCHier80(b *testing.B) {
	benchSim(b, "page-uk-2002", 80, core.NabbitCHierPolicy())
}

// BenchmarkSimTable1Pass is the benchmark's sim-table1 pass without the
// benchmark module: the six Table I models it uses at ScaleDefault under
// Nabbit, NabbitC and hierarchical NabbitC on 80 simulated cores, 18 runs
// an iteration. ns/node and allocs/node are the simulator's per-task cost
// (allocs/op, the gated figure, is allocs/node × the pass's node count;
// both include what the models' Predecessors allocate).
func BenchmarkSimTable1Pass(b *testing.B) {
	b.ReportAllocs()
	type run struct {
		spec core.CostSpec
		sink core.Key
		pol  core.Policy
	}
	var runs []run
	for _, app := range []string{"heat", "sw", "mg", "cg", "page-uk-2002", "life"} {
		bm, err := suite.Build(app, bench.ScaleDefault)
		if err != nil {
			b.Fatal(err)
		}
		spec, sink := bm.Model(80)
		for _, pol := range []core.Policy{core.NabbitPolicy(), core.NabbitCPolicy(), core.NabbitCHierPolicy()} {
			runs = append(runs, run{spec, sink, pol})
		}
	}
	var nodes int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			res, err := sim.Run(r.spec, r.sink, sim.Options{Workers: 80, Policy: r.pol})
			if err != nil {
				b.Fatal(err)
			}
			nodes += res.TotalNodes()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(nodes), "allocs/node")
}

// BenchmarkSimOMP measures the simulated OpenMP loop baseline.
func BenchmarkSimOMPStaticHeat80(b *testing.B) {
	b.ReportAllocs()
	bm, err := suite.Build("heat", bench.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	sweeps := bm.Sweeps(80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simomp.Run(80, numa.Paper(80), numa.DefaultCostModel(), omp.Static, sweeps); err != nil {
			b.Fatal(err)
		}
	}
}

// Wall-clock benches of the real engine on host cores.

func BenchmarkRealHeatSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stencil.Heat(bench.ScaleSmall).NewReal().RunSerial()
	}
}

func BenchmarkRealHeatNabbit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := stencil.Heat(bench.ScaleSmall).NewReal()
		spec, sink := r.Spec(8)
		if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: core.NabbitPolicy()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealHeatNabbitC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := stencil.Heat(bench.ScaleSmall).NewReal()
		spec, sink := r.Spec(8)
		if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: core.NabbitCPolicy()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealHeatNabbitCHier exercises the hierarchical steal protocol
// wall-clock on host cores, with workers grouped into synthetic 2-core
// sockets so the socket tiers engage.
func BenchmarkRealHeatNabbitCHier(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := stencil.Heat(bench.ScaleSmall).NewReal()
		spec, sink := r.Spec(8)
		_, err := core.Run(spec, sink, core.Options{
			Workers:  8,
			Policy:   core.NabbitCHierPolicy(),
			Topology: numa.Topology{Workers: 8, CoresPerDomain: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestDequeGrowthFirstRunOnly pins the deque's sizing contract: a worker
// deque starts small and grows with the frontier of open spawns, and the
// ring keeps its size, so growth is a first-run cost only. On one engine
// (one worker, so every run's frontier is the same), the first discovery
// of a 96×96 wavefront must grow the deque; a replay of that run and the
// discovery of a second sink, whose frontier would grow a new engine's
// deque too, must grow it no more. Every key the sink needs computes
// exactly once per run, and no other key at all.
func TestDequeGrowthFirstRunOnly(t *testing.T) {
	const n = 96
	preds := make([][]core.Key, n*n)
	for k := range preds {
		if k >= n {
			preds[k] = append(preds[k], core.Key(k-n))
		}
		if k%n > 0 {
			preds[k] = append(preds[k], core.Key(k-1))
		}
	}
	counts := make([]atomic.Int32, n*n)
	spec := core.FuncSpec{
		PredsFn:   func(k core.Key) []core.Key { return preds[k] },
		ColorFn:   func(core.Key) int { return 0 },
		BoundFn:   func() int { return n * n },
		ComputeFn: func(k core.Key) { counts[k].Add(1) },
	}
	opts := core.Options{Workers: 1, Policy: core.NabbitCPolicy()}
	last, second := core.Key(n*n-1), core.Key(n*n-2)
	run := func(e *core.Engine, sink core.Key) *core.Stats {
		t.Helper()
		st, err := e.Execute(sink)
		if err != nil {
			t.Fatal(err)
		}
		si, sj := int(sink)/n, int(sink)%n
		for k := range counts {
			want := int32(0)
			if k/n <= si && k%n <= sj {
				want = 1
			}
			if got := counts[k].Swap(0); got != want {
				t.Fatalf("sink %d: key %d computed %d times, want %d", sink, k, got, want)
			}
		}
		return st
	}

	cold, err := core.NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if g := run(cold, second).DequeGrows(); g == 0 {
		t.Fatalf("sink %d's discovery did not grow a new engine's deque; the second-sink check is vacuous", second)
	}

	e, err := core.NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if g := run(e, last).DequeGrows(); g == 0 {
		t.Fatal("the first discovery did not grow the deque; the test is vacuous")
	}
	st := run(e, last)
	if !st.Replayed {
		t.Fatal("the repeat Execute did not replay")
	}
	if g := st.DequeGrows(); g != 0 {
		t.Errorf("the replay grew the deque %d times, want 0", g)
	}
	st = run(e, second)
	if st.Replayed {
		t.Fatal("a new sink's run replayed")
	}
	if g := st.DequeGrows(); g != 0 {
		t.Errorf("the discovery of sink %d grew the deque %d times, want 0", second, g)
	}
}

// sizedHeatRun is the heat pin shared by the test (which CI runs) and
// the benchmark: a heat run on a bound-declaring spec at two workers
// must finish with zero deque growths, because its frontier of open
// spawns stays within the 64-entry deque a new engine starts with.
// Growth where a frontier does outrun that size is pinned by
// TestDequeGrowthFirstRunOnly.
func sizedHeatRun(fatalf func(format string, args ...any)) {
	r := stencil.Heat(bench.ScaleSmall).NewReal()
	spec, sink := r.Spec(2)
	st, err := core.Run(spec, sink, core.Options{Workers: 2, Policy: core.NabbitCPolicy()})
	if err != nil {
		fatalf("%v", err)
		return
	}
	if g := st.DequeGrows(); g != 0 {
		fatalf("%d deque growths on a heat run, want 0", g)
	}
}

// TestRealHeatDequeSizing runs the pin under plain `go test` so the
// regression actually gates CI (benchmarks only run when asked for). The
// subtest keeps the engine deque's name.
func TestRealHeatDequeSizing(t *testing.T) {
	t.Run("mutex", func(t *testing.T) { sizedHeatRun(t.Fatalf) })
}

// BenchmarkRealHeatDequeSizing times the same run.
func BenchmarkRealHeatDequeSizing(b *testing.B) {
	b.Run("mutex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sizedHeatRun(b.Fatalf)
		}
	})
}

func BenchmarkRealHeatOpenMPStatic(b *testing.B) {
	b.ReportAllocs()
	team := omp.NewTeam(8)
	defer team.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stencil.Heat(bench.ScaleSmall).NewReal().RunOpenMP(team, omp.Static)
	}
}

func BenchmarkRealSWNabbitC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := sw.N3(bench.ScaleSmall).NewReal()
		spec, sink := r.Spec(8)
		if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: core.NabbitCPolicy()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealPageRankNabbitC(b *testing.B) {
	b.ReportAllocs()
	pr := pagerank.UK2002(bench.ScaleSmall)
	pr.Graph() // generate once outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pr.NewReal()
		spec, sink := r.Spec(8)
		if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: core.NabbitCPolicy()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOverhead measures raw per-task scheduling cost: a wide,
// trivial graph of empty tasks.
func BenchmarkEngineOverheadPerTask(b *testing.B) {
	b.ReportAllocs()
	const tasks = 10000
	spec := core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			if k != tasks {
				return nil
			}
			ps := make([]core.Key, tasks)
			for i := range ps {
				ps[i] = core.Key(i)
			}
			return ps
		},
		ColorFn: func(k core.Key) int { return int(k) % 8 },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(spec, tasks, core.Options{Workers: 8, Policy: core.NabbitCPolicy()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tasks, "ns/task")
}

// BenchmarkPushPopSteal measures the scheduler's hottest cycle — owner
// push, owner pop, colored steal — on all three deque substrates.
// Steady-state expectation, gated by CI's bench-smoke job (via
// scripts/benchgate.sh): exactly 0 allocs/op for every substrate (color
// capacities up to colorset.InlineColors, i.e. any run at <=128
// workers). The entry masks are inline colorset values, the Chase–Lev
// slots store entries unboxed, and the block deque recycles blocks
// through its free list, so nothing on this path touches the heap after
// each deque reaches its steady-state capacity.
// BenchmarkStealThroughput drains a pre-filled deque with 8 concurrent
// thieves doing batched steals and reports items stolen per second plus
// claim CASes per stolen item. This is the single-CAS batch-steal
// headline: the block substrate claims whole sealed blocks, so its
// cas/item collapses toward 1/32 while the per-item substrates stay at
// >= 1. CI's bench-smoke job records the numbers in the job summary on
// every PR (advisory, not gated — wall-clock noise).
func BenchmarkStealThroughput(b *testing.B) {
	type casCounter interface{ StealCASes() int64 }
	impls := []struct {
		name string
		mk   func(hint int) deque.Queue[int]
	}{
		{"mutex", func(hint int) deque.Queue[int] { return deque.NewMutex[int](hint) }},
		{"chaselev", func(hint int) deque.Queue[int] { return deque.NewChaseLev[int](hint) }},
		{"block", func(hint int) deque.Queue[int] { return deque.NewBlock[int](hint) }},
	}
	const thieves = 8
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			q := impl.mk(b.N)
			for i := 0; i < b.N; i++ {
				q.PushBottom(deque.Entry[int]{Value: i, Colors: colorset.Of(80, i%80)})
			}
			var casBase int64
			if c, ok := q.(casCounter); ok {
				casBase = c.StealCASes()
			}
			var stolen atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for t := 0; t < thieves; t++ {
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
			b.StopTimer()
			if got := stolen.Load(); got != int64(b.N) {
				b.Fatalf("stole %d items, want %d", got, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steals/s")
			if c, ok := q.(casCounter); ok {
				b.ReportMetric(float64(c.StealCASes()-casBase)/float64(b.N), "cas/item")
			}
		})
	}
}

func BenchmarkPushPopSteal(b *testing.B) {
	impls := []struct {
		name string
		mk   func() deque.Queue[int]
	}{
		{"mutex", func() deque.Queue[int] { return deque.NewMutex[int](64) }},
		{"chaselev", func() deque.Queue[int] { return deque.NewChaseLev[int](64) }},
		{"block", func() deque.Queue[int] { return deque.NewBlock[int](64) }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			q := impl.mk()
			// Prewarm past any growth so the timed region is steady state.
			for i := 0; i < 256; i++ {
				q.PushBottom(deque.Entry[int]{Value: i, Colors: colorset.Of(80, i%80)})
			}
			for {
				if _, ok := q.PopBottom(); !ok {
					break
				}
			}
			e := deque.Entry[int]{Value: 1, Colors: colorset.Of(80, 3)}
			own := colorset.Of(80, 3)
			buf := make([]deque.Entry[int], 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.PushBottom(e)
				q.PushBottom(e)
				if _, ok := q.PopBottom(); !ok {
					b.Fatal("pop failed")
				}
				if _, out := q.Steal(&own, 1, buf[:0]); out != deque.StealOK {
					b.Fatalf("colored steal = %v", out)
				}
			}
		})
	}
}
