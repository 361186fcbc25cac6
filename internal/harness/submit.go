package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"nabbitc/internal/core"
	"nabbitc/internal/perf"
)

// The submit experiment pins the multi-tenant engine (core.Submit /
// Ticket.Wait) into the structured report pipeline, using only
// deterministic measurements so it can live in the byte-compared
// sim-kind document:
//
//   - submit/reuse: per-graph heap cost of the steady-state Submit/Wait
//     cycle (1 worker, bound declared; ReadMemStats deltas with GC off,
//     minimum across trials — the alloc experiment's methodology). The
//     engine recycles node tables through its pool, so a steady-state
//     graph must cost only the constant run bookkeeping.
//   - submit/concurrent: correctness census of a concurrent burst — many
//     disjoint fan-in cone graphs in flight at once; every sink and task
//     must compute exactly once, with node totals and graph ids exact.
//   - submit/admission: the deterministic face of admission control —
//     with computes gated shut, admitted = MaxInflight exactly, the rest
//     rejected with ErrSaturated, and every admitted graph drains once
//     the gate opens.
//
// Wall-clock throughput and latency (graphs/sec, p50/p90/p99 completion
// latency) are inherently noisy and therefore live in the benchmark
// module instead (benchmarks/: the submit-lo and submit-hi workloads).

// submitConeSpec is a forest of disjoint fan-in cones: graph g owns keys
// [g*(width+1), g*(width+1)+width], with width leaves feeding one sink.
// Disjoint key ranges make per-graph exactly-once violations observable
// per key. The predecessor slices are precomputed so spec-side
// allocation never pollutes the engine's per-graph numbers.
func submitConeSpec(graphs, width, workers int, compute func(core.Key)) core.FuncSpec {
	stride := width + 1
	preds := make([][]core.Key, graphs)
	for g := range preds {
		ps := make([]core.Key, width)
		for i := range ps {
			ps[i] = core.Key(g*stride + i)
		}
		preds[g] = ps
	}
	return core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			if int(k)%stride != width {
				return nil
			}
			return preds[int(k)/stride]
		},
		ColorFn:   func(k core.Key) int { return int(k) % workers },
		ComputeFn: compute,
		BoundFn:   func() int { return graphs * stride },
	}
}

func submitConeSink(g, width int) core.Key { return core.Key(g*(width+1) + width) }

// submitReuseTable measures the steady-state per-graph allocation cost of
// the Submit/Wait cycle, one worker for determinism.
func submitReuseTable(cfg Config) (*perf.Table, error) {
	const width = 32
	const iters = 2000
	t := perf.NewTable("submit/reuse",
		fmt.Sprintf("Submit: steady-state per-graph heap cost (fan-in %d, 1 worker, dense, %d graphs/trial)", width, iters),
		"scenario",
		perf.M("allocs_graph", "", perf.LowerIsBetter),
		perf.M("bytes_graph", "B", perf.LowerIsBetter),
		perf.M("nodes_graph", "", perf.Neutral))

	spec := submitConeSpec(1, width, 1, nil)
	sink := submitConeSink(0, width)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	minMallocs, minBytes := ^uint64(0), ^uint64(0)
	seenMin := 0
	var nodes int
	for trial := 0; trial < allocMaxTrials && seenMin < allocMinTrials; trial++ {
		e, err := core.NewEngine(spec, core.Options{
			Workers: 1, Policy: cfg.policy(core.NabbitCPolicy()),
		})
		if err != nil {
			return nil, err
		}
		cycle := func() (*core.Stats, error) {
			tk, err := e.Submit(sink)
			if err != nil {
				return nil, err
			}
			return tk.Wait()
		}
		for warm := 0; warm < 2; warm++ {
			if _, err := cycle(); err != nil {
				e.Close()
				return nil, err
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			st, err := cycle()
			if err != nil {
				e.Close()
				return nil, err
			}
			nodes = st.NodesCreated
		}
		runtime.ReadMemStats(&after)
		e.Close()
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
	t.AddRow("submit-wait", map[string]float64{
		"allocs_graph": float64(minMallocs) / float64(iters),
		"bytes_graph":  float64(minBytes) / float64(iters),
		"nodes_graph":  float64(nodes),
	})
	return t, nil
}

// submitConcurrentTable is the correctness census: a burst of disjoint
// cone graphs in flight at once; everything countable must come out
// exact, at several worker counts.
func submitConcurrentTable(cfg Config) (*perf.Table, error) {
	const graphs, width, inflight = 64, 16, 16
	stride := width + 1
	t := perf.NewTable("submit/concurrent",
		fmt.Sprintf("Submit: %d concurrent disjoint cone graphs (width %d, MaxInflight %d) — exactly-once census", graphs, width, inflight),
		"workers",
		perf.M("completed", "", perf.HigherIsBetter),
		perf.M("tasks_exactly_once", "", perf.HigherIsBetter),
		perf.M("nodes_total", "", perf.Neutral),
		perf.M("graph_ids_distinct", "", perf.Neutral))
	for _, workers := range []int{1, 4, 8} {
		counts := make([]atomic.Int32, graphs*stride)
		spec := submitConeSpec(graphs, width, workers, func(k core.Key) {
			counts[int(k)].Add(1)
		})
		e, err := core.NewEngine(spec, core.Options{
			Workers: workers, Policy: cfg.policy(core.NabbitCPolicy()), MaxInflight: inflight,
		})
		if err != nil {
			return nil, err
		}
		tickets := make([]*core.Ticket, graphs)
		for g := range tickets {
			tk, err := e.Submit(submitConeSink(g, width))
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("submit graph %d: %w", g, err)
			}
			tickets[g] = tk
		}
		completed, nodesTotal := 0, 0
		ids := make(map[uint64]bool)
		for g, tk := range tickets {
			st, err := tk.Wait()
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("wait graph %d: %w", g, err)
			}
			completed++
			nodesTotal += st.NodesCreated
			ids[st.GraphID] = true
		}
		e.Close()
		exactlyOnce := 1.0
		for k := range counts {
			if counts[k].Load() != 1 {
				exactlyOnce = 0
			}
		}
		t.AddRow(itoa(workers), map[string]float64{
			"completed":          float64(completed),
			"tasks_exactly_once": exactlyOnce,
			"nodes_total":        float64(nodesTotal),
			"graph_ids_distinct": float64(len(ids)),
		})
	}
	return t, nil
}

// submitAdmissionTable pins the admission-control arithmetic: computes
// gated shut make "in flight" a stable state, so admitted/rejected
// counts are exact at every MaxInflight level.
func submitAdmissionTable(cfg Config) (*perf.Table, error) {
	const offered = 8
	t := perf.NewTable("submit/admission",
		fmt.Sprintf("Submit: admission control under AdmissionReject (%d graphs offered, computes gated)", offered),
		"max_inflight",
		perf.M("offered", "", perf.Neutral),
		perf.M("admitted", "", perf.Neutral),
		perf.M("rejected", "", perf.Neutral),
		perf.M("drained_ok", "", perf.HigherIsBetter))
	for _, inflight := range []int{1, 2, 4, 8} {
		gate := make(chan struct{})
		spec := core.FuncSpec{
			PredsFn:   func(core.Key) []core.Key { return nil },
			ColorFn:   func(core.Key) int { return 0 },
			ComputeFn: func(core.Key) { <-gate },
			BoundFn:   func() int { return offered },
		}
		e, err := core.NewEngine(spec, core.Options{
			Workers: 2, Policy: cfg.policy(core.NabbitCPolicy()),
			MaxInflight: inflight, Admission: core.AdmissionReject,
		})
		if err != nil {
			return nil, err
		}
		var admitted []*core.Ticket
		rejected := 0
		for g := 0; g < offered; g++ {
			tk, err := e.Submit(core.Key(g))
			switch {
			case err == nil:
				admitted = append(admitted, tk)
			case err == core.ErrSaturated:
				rejected++
			default:
				e.Close()
				return nil, err
			}
		}
		close(gate)
		drained := 0
		for _, tk := range admitted {
			if _, err := tk.Wait(); err == nil {
				drained++
			}
		}
		e.Close()
		t.AddRow(itoa(inflight), map[string]float64{
			"offered":    float64(offered),
			"admitted":   float64(len(admitted)),
			"rejected":   float64(rejected),
			"drained_ok": float64(drained),
		})
	}
	return t, nil
}

// submitReport builds the multi-tenant engine report.
func submitReport(cfg Config) (*perf.Report, error) {
	rep := cfg.newReport("submit")
	rt, err := submitReuseTable(cfg)
	if err != nil {
		return nil, err
	}
	rep.AddTable(rt)
	ct, err := submitConcurrentTable(cfg)
	if err != nil {
		return nil, err
	}
	rep.AddTable(ct)
	at, err := submitAdmissionTable(cfg)
	if err != nil {
		return nil, err
	}
	rep.AddTable(at)
	return rep, nil
}
