package main

import (
	"time"

	"nabbitc/internal/bench/stencil"
	"nabbitc/internal/bench/sw"
	"nabbitc/internal/core"
)

// kernelPair is one Table I kernel in the two formulations a block
// compares. The packages' Real instances are single-use (the grids
// mutate), so prepare builds a fresh pair per block: both start from the
// same deterministic data and must end with the same checksum.
type kernelPair struct {
	tasks int64
	fresh func() kernelInst

	serial, par kernelInst
	bad         bool // engine op returned an error or wrong node counts
}

// kernelInst is what sw.Real and stencil.Real share.
type kernelInst interface {
	Spec(p int) (core.CostSpec, core.Key)
	RunSerial()
}

// checksumOf reads the instance's content hash; the two packages return
// different numeric types.
func checksumOf(k kernelInst) float64 {
	switch r := k.(type) {
	case *sw.Real:
		return float64(r.Checksum())
	case *stencil.Real:
		return r.Checksum()
	}
	panic("nabbitperf: kernel without a checksum")
}

// coarseKernels: real Table I compute (35-170 µs tasks) through a fresh
// engine per op, NewEngine + Execute + Close spelled out so a traced run
// separates the three. The scheduler is a few percent of the cycles here:
// per-task-path optimisations must show no change, while steal, locality,
// parking and engine construction do show.
type coarseKernels struct {
	noCensus
	seed    uint64
	kernels []*kernelPair
	acc     statsAcc
}

// coarseConfigs returns the sw and life configurations. They keep the
// paper's per-task grain (32×32-cell sw blocks with a 16-cell gap scan,
// 8192-cell life strips over 5 sweeps) on grids small enough for a block
// to take a fraction of a second.
func coarseConfigs(quick bool) (sw.Config, stencil.Config) {
	swc := sw.Config{Name: "sw", Description: "Smith-Waterman (n3)", ScanWindow: 16,
		BI: 32, BJ: 32, BlockH: 32, BlockW: 32}
	life := stencil.Config{Name: "life", Description: "Conway's game of life",
		Blocks: 128, CellsPerBlock: 8192, Iterations: 5,
		FlopsPerCell: 3, BytesPerCell: 2, HaloBytes: 16}
	if quick {
		swc.BI, swc.BJ = 8, 8
		life.Blocks, life.Iterations = 16, 3
	}
	return swc, life
}

func newCoarseKernels(quick bool, seed uint64) *coarseKernels {
	swc, life := coarseConfigs(quick)
	s, l := sw.New(swc), stencil.New(life)
	return &coarseKernels{seed: seed, kernels: []*kernelPair{
		{tasks: int64(s.Info().Nodes), fresh: func() kernelInst { return s.NewReal() }},
		// The stencil graph has one zero-cost sink beyond Table I's count.
		{tasks: int64(l.Info().Nodes) + 1, fresh: func() kernelInst { return l.NewReal() }},
	}}
}

func (c *coarseKernels) setup() error { return nil }

func (c *coarseKernels) prepare(int) {
	for _, k := range c.kernels {
		k.serial, k.par = k.fresh(), k.fresh()
	}
}

func (c *coarseKernels) ref(_ int, tr *tracer, parent int32) []float64 {
	unit := make([]float64, len(c.kernels))
	for i, k := range c.kernels {
		t0 := time.Now()
		sp := tr.beginAt(spRunSerial, parent, int32(i), t0)
		k.serial.RunSerial()
		t1 := time.Now()
		tr.endAt(sp, t1)
		unit[i] = float64(t1.Sub(t0))
	}
	return unit
}

func (c *coarseKernels) eng(_ int, tr *tracer, parent int32, log *opLog) {
	opts := core.Options{Workers: workers, Policy: policy(c.seed)}
	for i, k := range c.kernels {
		spec, sink := k.par.Spec(workers)
		t0 := time.Now()
		op := tr.beginAt(spOp, parent, int32(i), t0)
		st, err := runParts(spec, sink, opts, tr, op, int32(i))
		t1 := time.Now()
		tr.endAt(op, t1)
		log.add(t1.Sub(t0), uint8(i))
		k.bad = err != nil || st.TotalNodes() != k.tasks || int64(st.NodesCreated) != k.tasks
		if err == nil {
			c.acc.add(st)
		}
	}
}

// runParts is core.Run with its three calls visible to the tracer.
func runParts(spec core.Spec, sink core.Key, opts core.Options, tr *tracer, op, id int32) (*core.Stats, error) {
	sp := tr.begin(spNewEngine, op, id)
	e, err := core.NewEngine(spec, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spExecute, op, id)
	st, err := e.Execute(sink)
	tr.end(sp)
	sp = tr.begin(spClose, op, id)
	cerr := e.Close()
	tr.end(sp)
	if err == nil {
		err = cerr
	}
	return st, err
}

func (c *coarseKernels) verify(int) (failed int) {
	for _, k := range c.kernels {
		if k.bad || checksumOf(k.par) != checksumOf(k.serial) {
			failed++
		}
	}
	return failed
}

func (c *coarseKernels) close() error { return nil }

func (c *coarseKernels) layers(_ *runResult, tr *tracer) []metric {
	ne, cl := scale(tr.durations(spNewEngine), 1e-3), scale(tr.durations(spClose), 1e-3)
	ms := []metric{
		{"core.new_engine_us_p50", median(ne), "us", len(ne)},
		{"core.close_us_p50", median(cl), "us", len(cl)},
	}
	return append(ms, c.acc.metrics(".coarse")...)
}
