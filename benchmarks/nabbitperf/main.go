// Command nabbitperf is this repository's benchmark: five fixed-shape
// workloads whose every timing metric is a ratio against a reference
// measured interleaved in the same process, so that host drift on a shared
// machine cancels. See ../README.md for why each workload exists and how
// the metrics interact.
//
//	nabbitperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer and reports the per-layer
// metrics. The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// metric is one reported value; n is the number of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

var workloadNames = []string{"fine-grid", "coarse-kernels", "submit-lo", "submit-hi", "sim-table1"}

func newWorkload(name string, quick bool, seed uint64) workload {
	switch name {
	case "fine-grid":
		return newFineGrid(quick, seed)
	case "coarse-kernels":
		return newCoarseKernels(quick, seed)
	case "submit-lo":
		return newSubmitLoad(1, quick, seed)
	case "submit-hi":
		return newSubmitLoad(128, quick, seed)
	case "sim-table1":
		return newSimTable1(quick, seed)
	}
	panic("nabbitperf: no workload " + name)
}

const (
	// setupReps is how many times a run sets up from scratch; setup_s is
	// the median, and the last instance is the one measured.
	setupReps = 3
	// warmBlocks is how many untimed blocks the measured instance runs
	// before timing: the first ends its set-up, the rest follow it. The
	// engine's first dozen Executes run up to half as slow again as its
	// steady state.
	warmBlocks = 3
	// maxHeapMB fails a run: no workload may need more than this.
	maxHeapMB = 512
	// quickBlocks is the fixed block count of --quick runs.
	quickBlocks = 2
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	quick    bool
	traceOut string
}

type outcome struct {
	metrics           []metric
	attempted, failed int
}

// setUp builds the workload and runs its first warm-up block.
func setUp(name string, quick bool, seed uint64, out *outcome) (workload, error) {
	w := newWorkload(name, quick, seed)
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	warmUp(w, out)
	return w, nil
}

// warmUp runs block 0, untimed but checked like any other.
func warmUp(w workload, out *outcome) {
	log := &opLog{}
	runBlock(w, 0, true, nil, false, log)
	out.attempted += len(log.ns)
	out.failed += w.verify(0)
}

func heapSysMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapSys) / (1 << 20)
}

// liveMB is the heap still reachable after a full collection, less the
// benchmark's own latency samples: what the inputs, the engine and its
// node tables hold at the end of the timed part. (HeapSys, which also
// counts freed spans the runtime keeps, moved by 15-35 % between runs of
// the same code; it stays as the 512 MB guard and a per-layer metric.)
func liveMB(res *runResult) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (float64(m.HeapAlloc) - float64(8*cap(res.latX))) / (1 << 20)
}

// finish runs the census block, closes the workload and applies the
// memory and length guards.
func finish(w workload, res *runResult, budget time.Duration, out *outcome) error {
	out.attempted += res.attempted
	out.failed += res.failed
	a, f := w.census()
	out.attempted += a
	out.failed += f
	if err := w.close(); err != nil {
		return err
	}
	if mb := heapSysMB(); mb > maxHeapMB {
		return fmt.Errorf("heap of %.0f MB passes the %d MB guard", mb, maxHeapMB)
	}
	// A block is a fraction of a second; a timed part half as long again
	// as asked means the host stalled and the run measured the stall.
	if budget > 0 && res.timed > budget*3/2 {
		return fmt.Errorf("timed part took %.1f s of a %.1f s budget", res.timed.Seconds(), budget.Seconds())
	}
	return nil
}

// endToEnd is the untraced run: set-up (repeated), timed blocks, census.
func endToEnd(c config) (*outcome, error) {
	out := &outcome{}
	var w workload
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setUp(c.workload, c.quick, c.seed, out); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	for i := 1; i < warmBlocks; i++ {
		warmUp(w, out)
	}
	budget, blocks := c.budget(1)
	res := measure(w, budget, blocks, nil, nil, false)
	live := liveMB(res)
	if err := finish(w, res, budget, out); err != nil {
		return nil, err
	}
	ops, nb := len(res.latX), len(res.blocks)
	out.metrics = []metric{
		{"setup_s", median(setups), "s", setupReps},
		{"speedup_vs_ref", median(res.speedups()), "x", nb},
		{"lat_x_p50", quantile(res.latX, 0.5), "x", ops},
		{"lat_x_p90", quantile(res.latX, 0.9), "x", ops},
		{"live_mb", live, "MB", 1},
	}
	return out, nil
}

// budget returns the time budget and fixed block count for a share of the
// run: --quick fixes the block count, otherwise the clock decides.
func (c config) budget(share float64) (time.Duration, int) {
	if c.quick {
		return 0, quickBlocks
	}
	return time.Duration(share * c.seconds * float64(time.Second)), 0
}

// traced is the per-layer run. The workload under test takes half the
// time, alternating traced and untraced blocks; the other four run two
// fully traced blocks each at the same sizes, so that every run measures
// every layer and a metric means the same whichever workload is under
// test; the probes take the rest.
func traced(c config) (*outcome, error) {
	out := &outcome{}
	for _, name := range workloadNames {
		under := name == c.workload
		w, err := setUp(name, c.quick, c.seed, out)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		budget, blocks := c.budget(0.5)
		traceBlock := tracedBlock
		if !under {
			budget, blocks = 0, quickBlocks
			traceBlock = func(int) bool { return true }
		}
		res := measure(w, budget, blocks, tr, traceBlock, true)
		if err := finish(w, res, budget, out); err != nil {
			return nil, err
		}
		out.metrics = append(out.metrics, w.layers(res, tr)...)
		if under {
			out.metrics = append(out.metrics, traceOverhead(res))
			if err := tr.write(c.traceOut, c.workload, c.seed); err != nil {
				return nil, err
			}
			printSelfTimes(tr)
		}
		runtime.GC()
	}
	out.metrics = append(out.metrics, probeNodeStore(c.quick, c.seed)...)
	out.metrics = append(out.metrics, probeDeques(c.quick)...)
	out.metrics = append(out.metrics, probeColorset())
	out.metrics = append(out.metrics, probeKernels(c.quick, c.seed)...)
	out.metrics = append(out.metrics, metric{"host.heap_sys_mb", heapSysMB(), "MB", 1})
	return out, nil
}

// traceOverhead compares the engine slices of traced and untraced blocks
// of the same run: (traced - untraced) / untraced.
func traceOverhead(res *runResult) metric {
	var on, off []float64
	for _, b := range res.blocks {
		if b.traced {
			on = append(on, b.engNs)
		} else {
			off = append(off, b.engNs)
		}
	}
	m := metric{name: "trace.overhead_share", unit: "ratio", n: len(on)}
	if len(on) > 0 && len(off) > 0 {
		m.value = median(on)/median(off) - 1
	}
	return m
}

func printSelfTimes(tr *tracer) {
	self, count := tr.selfTimes()
	for k, n := range count {
		if n > 0 {
			fmt.Printf("span %-22s n=%-7d self=%.3f ms\n", spanNames[k], n, float64(self[k])/1e6)
		}
	}
}

func run() error {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "one of fine-grid, coarse-kernels, submit-lo, submit-hi, sim-table1")
	flag.Uint64Var(&c.seed, "seed", 1, "seeds Policy.Seed, the cone visiting order and the per-task spin lengths")
	flag.Float64Var(&c.seconds, "seconds", 20, "length of the timed part")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics in place of the end-to-end ones")
	flag.StringVar(&c.traceOut, "trace-out", "", "where --trace 1 writes the spans (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&c.quick, "quick", false, "small inputs and two blocks: the same code paths in about a second")
	flag.Parse()
	if !slices.Contains(workloadNames, c.workload) {
		return fmt.Errorf("unknown --workload %q (have %v)", c.workload, workloadNames)
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace takes 0 or 1")
	}
	if c.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if c.traceOut == "" {
		c.traceOut = ".bench_build/trace-" + c.workload + ".json"
	}
	runtime.GOMAXPROCS(workers)
	fmt.Printf("nabbitperf workload=%s seed=%d seconds=%g trace=%d quick=%t GOMAXPROCS=%d Workers=%d\n",
		c.workload, c.seed, c.seconds, trace, c.quick, workers, workers)

	run := endToEnd
	if trace == 1 {
		run = traced
	}
	o, err := run(c)
	if err != nil {
		return err
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(o.metrics))
	for _, m := range o.metrics {
		fmt.Printf("%-40s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		ms[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Printf("attempted=%d failed=%d\n", o.attempted, o.failed)
	line, err := json.Marshal(map[string]any{
		"correct": o.failed == 0, "attempted": o.attempted, "failed": o.failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nabbitperf:", err)
		os.Exit(1)
	}
}
