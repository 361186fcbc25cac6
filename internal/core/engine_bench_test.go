package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkExecuteReuse measures repeated Execute on one persistent
// engine (bound declared): the iterative-workload steady state, which is a
// replay of the 512-block fan-in. CI's bench-smoke job hard-gates its
// allocs/op at the run's own bookkeeping (3: the run, the done channel
// Execute sleeps on, the per-worker stats) plus two — an Execute that
// rebuilt the node arena, the deques, or the worker pool would cost at
// least one allocation per node and trip the gate instantly. A single worker keeps the run
// deterministic, so the number is stable enough to gate tightly.
func BenchmarkExecuteReuse(b *testing.B) {
	const n = 512
	spec := flatFanInSpec(n, 1, nil)
	e, err := NewEngine(spec, Options{Workers: 1, Policy: NabbitCPolicy()})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	// Warm up past first-run effects (deque steady state, scratch sizing).
	for r := 0; r < 2; r++ {
		if _, err := e.Execute(n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := e.Execute(n)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Replayed {
			b.Fatal("a repeat Execute was not replayed")
		}
	}
}

// conesSpecPre is coneSpec with precomputed predecessor slices, so a
// benchmark's per-graph allocation count isolates the engine's own
// admission/completion bookkeeping from spec-side allocation (and, with one
// colour, from colour grouping).
func conesSpecPre(cones, width, colors int, compute func(Key)) FuncSpec {
	stride := width + 1
	leaves := make([][]Key, cones)
	for g := range leaves {
		ls := make([]Key, width)
		for i := range ls {
			ls[i] = Key(g*stride + i)
		}
		leaves[g] = ls
	}
	return FuncSpec{
		PredsFn: func(k Key) []Key {
			if int(k)%stride != width {
				return nil
			}
			return leaves[int(k)/stride]
		},
		ColorFn:   func(k Key) int { return int(k) % colors },
		ComputeFn: compute,
		BoundFn:   func() int { return cones * stride },
	}
}

// BenchmarkSubmitThroughput measures the per-graph cost of the
// Submit/Wait path at both ends of the tenancy range: 33-node cones out of
// a universe of 1 024, kept MaxInflight deep — 1 is the single-request
// path (admit, seed, compute, complete, one graph at a time), 128 the
// tenancy path (128 live node tables over one page pool). CI's bench-smoke
// job hard-gates allocs/op on both rows at the steady state plus two — the
// steady state allocates only the graphRun, which carries its Ticket and
// Stats, never a channel, tables, pages or deques — and the rows' graphs/s
// show whether throughput holds as tenancy rises (the roadmap's tenancy
// claim: it must not fall). live-B/graph is the heap the engine holds per
// graph in flight: heap in use after a GC with the engine warm, less the
// heap before it was built, over MaxInflight. A single worker keeps the
// allocation count deterministic enough to gate tightly.
func BenchmarkSubmitThroughput(b *testing.B) {
	const cones, width = 1024, 32
	spec := conesSpecPre(cones, width, 1, func(Key) {})
	heapInUse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, inflight := range []int{1, 128} {
		b.Run(fmt.Sprintf("inflight-%d", inflight), func(b *testing.B) {
			before := heapInUse()
			e, err := NewEngine(spec, Options{Workers: 1, Policy: NabbitCPolicy(), MaxInflight: inflight})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			ring := make([]*Ticket, inflight)
			head, n := 0, 0
			wait := func() {
				st, err := ring[head].Wait()
				if err != nil {
					b.Fatal(err)
				}
				if st.NodesCreated != width+1 {
					b.Fatalf("NodesCreated = %d, want %d", st.NodesCreated, width+1)
				}
				head, n = (head+1)%inflight, n-1
			}
			submit := func(i int) {
				if n == inflight {
					wait()
				}
				tk, err := e.Submit(coneSink(i*7%cones, width))
				if err != nil {
					b.Fatal(err)
				}
				ring[(head+n)%inflight] = tk
				n++
			}
			for i := 0; i < 2*inflight; i++ { // warm up: every table built, the pool at its peak
				submit(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit(i)
			}
			for n > 0 {
				wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "graphs/s")
			b.ReportMetric(float64(heapInUse()-before)/float64(inflight), "live-B/graph")
		})
	}
}

// BenchmarkSubmitWaitCone17 is the single-request latency path in the shape
// of the repository benchmark's submit-lo workload: Submit then Wait of one
// 17-node cone (16 leaves of ~100 ns feeding a sink, two colours) at a time
// on a 2-worker engine. Besides us/op it reports what the workers did per
// graph, from their own counters: parks, wakes, steal attempts and deque
// pushes. A caller that waits at once should run the whole graph itself on
// a borrowed worker — the first three near zero — rather than hand 17 tiny
// tasks to two goroutines, and publish only the halves a thief could use:
// eager splitting pushes 15 per cone (one colour group, 14 one-colour
// halves); lazy publication under the deferred wake, where nobody can
// steal, pushes only the colour group, about 1.2 counting the graphs a
// woken worker joins.
func BenchmarkSubmitWaitCone17(b *testing.B) { benchSubmitWait(b, 16) }

// BenchmarkSubmitWaitNode1 is BenchmarkSubmitWaitCone17 with a graph of one
// node: what a graph costs before its first task and after its sink —
// admission, table checkout, seeding, completion, Wait — with one ~100 ns
// task and no grouping.
func BenchmarkSubmitWaitNode1(b *testing.B) { benchSubmitWait(b, 0) }

// benchSubmitWait submits and waits for cones of width leaves one at a time
// on a 2-worker engine (see BenchmarkSubmitWaitCone17).
func benchSubmitWait(b *testing.B, width int) {
	const cones, workers = 1024, 2
	vals := make([]uint64, cones*(width+1))
	spec := conesSpecPre(cones, width, workers, func(k Key) {
		x := uint64(k) | 1
		for i := 0; i < 64; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		vals[k] = x
	})
	e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy(), MaxInflight: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	op := func(i int) {
		tk, err := e.Submit(coneSink(i*7%cones, width))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	// counters sums the workers' cumulative counters (Submit mode never
	// resets them) in the quiet state, the one point they may be read.
	counters := func() (parks, wakes, attempts, pushes int64) {
		e.lockQuiet()
		defer e.stateMu.Unlock()
		for _, w := range e.workers {
			parks += w.stats.Parks
			wakes += w.stats.Wakes
			attempts += w.stats.StealAttempts
			pushes += w.stats.Pushes
		}
		return
	}
	for i := 0; i < 2*cones; i++ {
		op(i)
	}
	p0, w0, a0, q0 := counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	p1, w1, a1, q1 := counters()
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/op")
	b.ReportMetric(float64(p1-p0)/n, "parks/op")
	b.ReportMetric(float64(w1-w0)/n, "wakes/op")
	b.ReportMetric(float64(a1-a0)/n, "steal-attempts/op")
	b.ReportMetric(float64(q1-q0)/n, "pushes/op")
}

// BenchmarkSubmitNeverWaited measures what the deferred wake costs a caller
// who does not wait: one 17-node cone submitted to an idle engine of 2
// workers, timed from Submit to the sink's OnComplete, with the submitter
// asleep on a channel the hook feeds (blocked) or polling a flag without
// ever yielding its P (spinning). Nobody calls Wait or Done, so the graph is
// started by the deferral's timer alone: this is the contract's far end, a
// wake latency without the deferral and about a millisecond with it.
func BenchmarkSubmitNeverWaited(b *testing.B) {
	const cones, width, workers = 64, 16, 2
	for _, mode := range []string{"blocked", "spinning"} {
		b.Run(mode, func(b *testing.B) {
			var sunk atomic.Int64 // the sink most recently computed, +1
			woken := make(chan struct{}, 1)
			spec := conesSpecPre(cones, width, workers, func(Key) {})
			e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy(), MaxInflight: 1,
				OnComplete: func(_ int, k Key) {
					if int(k)%(width+1) == width {
						sunk.Store(int64(k) + 1)
						if mode == "blocked" {
							woken <- struct{}{}
						}
					}
				}})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				e.lockQuiet() // every worker parked again: the engine is idle
				e.stateMu.Unlock()
				sink := coneSink(i*7%cones, width)
				start := time.Now()
				if _, err := e.Submit(sink); err != nil {
					b.Fatal(err)
				}
				if mode == "blocked" {
					<-woken
				} else {
					for sunk.Load() != int64(sink)+1 {
					}
				}
				total += time.Since(start)
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N), "us/graph")
		})
	}
}

// BenchmarkSubmitBurst is the multi-tenant contrast row: a sliding
// window of 64 in-flight cone graphs on 4 workers — graphs/sec under
// genuine concurrency. Wall-clock only; not alloc-gated (parallel
// completion order perturbs pool-append amortization).
func BenchmarkSubmitBurst(b *testing.B) {
	const graphs, width, workers, window = 64, 16, 4, 64
	spec := coneSpec(graphs, width, workers, nil)
	e, err := NewEngine(spec, Options{
		Workers: workers, Policy: NabbitCPolicy(), MaxInflight: window,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	pending := make([]*Ticket, 0, window)
	for i := 0; i < b.N; i++ {
		tk, err := e.Submit(coneSink(i%graphs, width))
		if err != nil {
			b.Fatal(err)
		}
		pending = append(pending, tk)
		if len(pending) == window {
			for _, tk := range pending {
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			pending = pending[:0]
		}
	}
	for _, tk := range pending {
		if _, err := tk.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFresh is the contrast row: the same graph through the
// single-use Run wrapper, paying engine construction (goroutines, deques,
// arena) every iteration.
func BenchmarkRunFresh(b *testing.B) {
	const n = 512
	spec := flatFanInSpec(n, 1, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, n, Options{Workers: 1, Policy: NabbitCPolicy()}); err != nil {
			b.Fatal(err)
		}
	}
}
