package harness

import (
	"runtime"
	"runtime/debug"

	"nabbitc/internal/colorset"
	"nabbitc/internal/deque"
	"nabbitc/internal/perf"
)

// The alloc experiment pins the scheduler hot path's allocation behavior
// into the structured report pipeline: allocs/op and bytes/op for the
// push → pop → steal cycle on both deque substrates and for the colorset
// operations the steal path performs. Steady-state rows must report
// exactly zero — that is the paper's "constant-size color flag array"
// property, and the CI bench-smoke job gates on the equivalent
// BenchmarkPushPopSteal numbers.
//
// Measurements use runtime.ReadMemStats deltas over a fixed operation
// count with the collector disabled (not testing.Benchmark, whose
// duration-driven iteration counts would make the emitted document
// nondeterministic). With a fixed op count and allocation-free ops the
// deltas are exactly reproducible, so the experiment can live inside the
// deterministic sim-kind document that CI re-emits and byte-compares.

// allocIters is the per-scenario operation count. Large enough that any
// per-op allocation dominates the measurement, small enough that the
// experiment stays in the noise floor of a test run's duration.
const allocIters = 50000

// Stray allocations from unrelated goroutines (a pprof profile writer
// started by -cpuprofile, a finishing background task) can pollute a
// trial's delta, so trials repeat until the same minimum malloc count is
// observed twice (up to allocMaxTrials): pollution would have to hit
// every window to survive into the reported number. A clean process
// converges in allocMinTrials, keeping the emitted document
// deterministic.
const (
	allocMinTrials = 2
	allocMaxTrials = 7
)

// measureAllocs runs op allocIters times per trial and returns the per-op
// heap allocation count and byte volume (minimum across trials).
func measureAllocs(op func()) (allocsPerOp, bytesPerOp float64) {
	return measureAllocsSetup(func() func() { return op }, allocIters)
}

// measureAllocsSetup is measureAllocs for operations that consume state:
// setup runs once per trial, outside the measured window, and returns the
// op closure for that trial (e.g. a fresh node table whose keys the op
// creates one by one). iters is the per-trial op count.
func measureAllocsSetup(setup func() func(), iters int) (allocsPerOp, bytesPerOp float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	minMallocs, minBytes := ^uint64(0), ^uint64(0)
	seenMin := 0
	for trial := 0; trial < allocMaxTrials && seenMin < allocMinTrials; trial++ {
		op := setup()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		d := after.Mallocs - before.Mallocs
		switch {
		case d < minMallocs:
			minMallocs, seenMin = d, 1
		case d == minMallocs:
			seenMin++
		}
		if b := after.TotalAlloc - before.TotalAlloc; b < minBytes {
			minBytes = b
		}
	}
	return float64(minMallocs) / float64(iters), float64(minBytes) / float64(iters)
}

// allocColors is the color capacity used by the deque scenarios: the
// paper's 80-worker machine, comfortably inside colorset.InlineColors.
const allocColors = 80

// prewarm pushes and drains enough entries to grow a deque past any
// transient state, so the measured ops run in steady state.
func prewarm(q deque.Queue[int]) {
	for i := 0; i < 256; i++ {
		q.PushBottom(deque.Entry[int]{Value: i, Colors: colorset.Of(allocColors, i%allocColors)})
	}
	for {
		if _, ok := q.PopBottom(); !ok {
			break
		}
	}
}

// allocScenarios enumerates the measured operations. Every op leaves its
// structure in the same state it found it, so op count N really measures
// N steady-state cycles.
func allocScenarios() []struct {
	name   string
	expect float64 // documented steady-state allocs/op bound
	op     func() func()
} {
	mkDeque := func(mk func() deque.Queue[int], steal bool) func() func() {
		return func() func() {
			q := mk()
			prewarm(q)
			e := deque.Entry[int]{Value: 1, Colors: colorset.Of(allocColors, 3)}
			if !steal {
				return func() {
					q.PushBottom(e)
					q.PopBottom()
				}
			}
			own := colorset.Of(allocColors, 3)
			buf := make([]deque.Entry[int], 0, 1)
			return func() {
				q.PushBottom(e)
				if _, out := q.Steal(&own, 1, buf[:0]); out != deque.StealOK {
					panic("alloc: colored steal missed its own color")
				}
			}
		}
	}
	return []struct {
		name   string
		expect float64
		op     func() func()
	}{
		{"mutex/push-pop", 0, mkDeque(func() deque.Queue[int] { return deque.NewMutex[int](64) }, false)},
		{"mutex/push-steal", 0, mkDeque(func() deque.Queue[int] { return deque.NewMutex[int](64) }, true)},
		{"chaselev/push-pop", 0, mkDeque(func() deque.Queue[int] { return deque.NewChaseLev[int](64) }, false)},
		{"chaselev/push-steal", 0, mkDeque(func() deque.Queue[int] { return deque.NewChaseLev[int](64) }, true)},
		{"block/push-pop", 0, mkDeque(func() deque.Queue[int] { return deque.NewBlock[int](64) }, false)},
		{"block/push-steal", 0, mkDeque(func() deque.Queue[int] { return deque.NewBlock[int](64) }, true)},
		{"colorset/inline-80", 0, func() func() {
			sink := false
			return func() {
				s := colorset.New(allocColors)
				s.Add(7)
				sink = s.Has(7) && sink
			}
		}},
		{"colorset/spill-200", 1, func() func() {
			// Beyond InlineColors the set spills to one heap slice; this
			// row documents the cliff so a capacity regression is visible.
			sink := false
			return func() {
				s := colorset.New(200)
				s.Add(7)
				sink = s.Has(7) && sink
			}
		}},
	}
}

// allocReport measures every scenario into a report: allocs/op, bytes/op,
// and the documented expected bound per row.
func allocReport(cfg Config) (*perf.Report, error) {
	rep := cfg.newReport("alloc")
	t := perf.NewTable("alloc/steady-state",
		"Alloc: steady-state heap allocations per hot-path operation",
		"scenario",
		perf.M("allocs_op", "", perf.LowerIsBetter),
		perf.M("bytes_op", "B", perf.LowerIsBetter),
		perf.M("expected_allocs_op", "", perf.Neutral))
	for _, sc := range allocScenarios() {
		op := sc.op()
		allocs, bytes := measureAllocs(op)
		t.AddRow(sc.name, map[string]float64{
			"allocs_op":          allocs,
			"bytes_op":           bytes,
			"expected_allocs_op": sc.expect,
		})
	}
	rep.AddTable(t)
	return rep, nil
}
