package sim

import (
	"errors"
	"slices"
	"testing"

	"nabbitc/internal/core"
	"nabbitc/internal/numa"
)

// gridSpec builds a 2D wavefront DAG (rows × cols): task (i,j) depends on
// (i-1,j) and (i,j-1); the sink is (rows-1, cols-1). Tasks are colored by
// row block, evenly over p colors. Every task has the given footprint.
func gridSpec(rows, cols, p int, fp core.Footprint) (core.FuncSpec, core.Key, int) {
	key := func(i, j int) core.Key { return core.Key(i*cols + j) }
	spec := core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			i, j := int(k)/cols, int(k)%cols
			var ps []core.Key
			if i > 0 {
				ps = append(ps, key(i-1, j))
			}
			if j > 0 {
				ps = append(ps, key(i, j-1))
			}
			return ps
		},
		ColorFn: func(k core.Key) int {
			i := int(k) / cols
			return i * p / rows
		},
		FootprintFn: func(core.Key) core.Footprint { return fp },
	}
	return spec, key(rows-1, cols-1), rows * cols
}

var testFP = core.Footprint{Compute: 500, OwnBytes: 2000, PredBytes: 100}

// stencilSpec builds an iteration-stencil DAG like the paper's heat
// benchmark: task (iter, block) depends on (iter-1, block-1..block+1), and
// a sink gathers the last iteration. Blocks are colored contiguously over
// p colors. Unlike a wavefront, each iteration exposes a wide frontier of
// every color, which is the regime where colored scheduling pays off.
func stencilSpec(iters, blocks, p int, fp core.Footprint) (core.FuncSpec, core.Key, int) {
	key := func(it, b int) core.Key { return core.Key(it*blocks + b) }
	sink := core.Key(iters * blocks)
	spec := core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			if k == sink {
				ps := make([]core.Key, blocks)
				for b := 0; b < blocks; b++ {
					ps[b] = key(iters-1, b)
				}
				return ps
			}
			it, b := int(k)/blocks, int(k)%blocks
			if it == 0 {
				return nil
			}
			var ps []core.Key
			for d := -1; d <= 1; d++ {
				if nb := b + d; nb >= 0 && nb < blocks {
					ps = append(ps, key(it-1, nb))
				}
			}
			return ps
		},
		ColorFn: func(k core.Key) int {
			if k == sink {
				return 0
			}
			b := int(k) % blocks
			return b * p / blocks
		},
		FootprintFn: func(core.Key) core.Footprint { return fp },
	}
	return spec, sink, iters*blocks + 1
}

func TestRunCompletes(t *testing.T) {
	for _, p := range []int{1, 2, 8, 20, 80} {
		spec, sink, n := gridSpec(20, 20, p, testFP)
		for _, policy := range []core.Policy{core.NabbitPolicy(), core.NabbitCPolicy()} {
			res, err := Run(spec, sink, Options{Workers: p, Policy: policy})
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			if int(res.TotalNodes()) != n {
				t.Fatalf("P=%d: executed %d, want %d", p, res.TotalNodes(), n)
			}
			if res.NodesCreated != n {
				t.Fatalf("P=%d: created %d, want %d", p, res.NodesCreated, n)
			}
			if res.Makespan <= 0 {
				t.Fatalf("P=%d: makespan %d", p, res.Makespan)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	spec, sink, _ := gridSpec(30, 30, 16, testFP)
	run := func() *Result {
		res, err := Run(spec, sink, Options{Workers: 16, Policy: core.NabbitCPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %d vs %d", a.Makespan, b.Makespan)
	}
	for i := range a.Workers {
		if a.Workers[i] != b.Workers[i] {
			t.Fatalf("worker %d stats differ:\n%+v\n%+v", i, a.Workers[i], b.Workers[i])
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	spec, sink, _ := gridSpec(30, 30, 16, testFP)
	pol := core.NabbitPolicy()
	res1, err := Run(spec, sink, Options{Workers: 16, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	pol.Seed = 999
	res2, err := Run(spec, sink, Options{Workers: 16, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	// Different victim choices must change at least the steal pattern.
	if res1.StealAttempts() == res2.StealAttempts() && res1.Makespan == res2.Makespan {
		t.Log("warning: different seeds produced identical runs (possible but unlikely)")
	}
}

func TestDependenceOrder(t *testing.T) {
	spec, sink, n := gridSpec(15, 15, 8, testFP)
	type done struct {
		at  int64
		seq int
	}
	finished := map[core.Key]done{}
	seq := 0
	opts := Options{
		Workers: 8,
		Policy:  core.NabbitCPolicy(),
		OnComplete: func(at int64, _ int, k core.Key) {
			finished[k] = done{at: at, seq: seq}
			seq++
		},
	}
	if _, err := Run(spec, sink, opts); err != nil {
		t.Fatal(err)
	}
	if len(finished) != n {
		t.Fatalf("completed %d, want %d", len(finished), n)
	}
	// Assertion sweep over every completion — order-independent.
	//nabbit:nondeterministic-ok
	for k, d := range finished {
		for _, p := range spec.Predecessors(k) {
			pd, ok := finished[p]
			if !ok {
				t.Fatalf("task %d finished but predecessor %d never did", k, p)
			}
			if pd.seq > d.seq {
				t.Fatalf("task %d completed before predecessor %d", k, p)
			}
		}
	}
}

func TestSpeedupSanity(t *testing.T) {
	// A wide, regular graph must go substantially faster on 8 workers
	// than on 1.
	spec, sink, _ := gridSpec(40, 40, 8, testFP)
	t1, err := Run(spec, sink, Options{Workers: 1, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Run(spec, sink, Options{Workers: 8, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(t1.Makespan) / float64(t8.Makespan)
	if speedup < 3 {
		t.Fatalf("speedup on 8 workers = %.2f, want >= 3", speedup)
	}
}

func TestLocalityAdvantage(t *testing.T) {
	// On a 2-domain machine (20 workers) with a well-colored regular
	// workload, NabbitC must incur a much lower remote-access percentage
	// than Nabbit — the paper's central claim (Fig. 7).
	spec, sink, _ := stencilSpec(8, 400, 20, testFP)
	resN, err := Run(spec, sink, Options{Workers: 20, Policy: core.NabbitPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	resC, err := Run(spec, sink, Options{Workers: 20, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	rn, rc := resN.RemotePercent(), resC.RemotePercent()
	if rc >= rn {
		t.Fatalf("NabbitC remote%% (%.1f) not below Nabbit (%.1f)", rc, rn)
	}
	if rc > rn/2 {
		t.Fatalf("NabbitC remote%% (%.1f) not well below Nabbit (%.1f)", rc, rn)
	}
}

func TestFewerSteals(t *testing.T) {
	// Fig. 8: NabbitC performs far fewer successful steals than Nabbit.
	spec, sink, _ := stencilSpec(8, 400, 40, testFP)
	resN, err := Run(spec, sink, Options{Workers: 40, Policy: core.NabbitPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	resC, err := Run(spec, sink, Options{Workers: 40, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	sn, _ := resN.SuccessfulSteals()
	sc, _ := resC.SuccessfulSteals()
	if sc >= sn {
		t.Fatalf("NabbitC steals (%d) not below Nabbit (%d)", sc, sn)
	}
}

func TestInvalidColoring(t *testing.T) {
	// Table III: with colors no worker owns, all colored steals fail and
	// the run must still complete, at Nabbit-like cost.
	spec, sink, n := gridSpec(30, 30, 8, testFP)
	bad := core.Recolored{Spec: spec, ColorFn: func(core.Key) int { return -1 }}
	pol := core.NabbitCPolicy()
	pol.FirstStealMaxRounds = 4
	res, err := Run(bad, sink, Options{Workers: 8, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.TotalNodes()) != n {
		t.Fatalf("executed %d, want %d", res.TotalNodes(), n)
	}
	if _, colored := res.SuccessfulSteals(); colored != 0 {
		t.Fatalf("%d colored steals succeeded with invalid colors", colored)
	}
}

func TestBadColoringCostsMore(t *testing.T) {
	// Table II: a valid-but-wrong coloring loses the locality advantage:
	// makespan with bad colors must exceed makespan with good colors on
	// a multi-domain machine.
	spec, sink, _ := gridSpec(80, 40, 20, testFP)
	good, err := Run(spec, sink, Options{Workers: 20, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	// Shift every color by half the machine: all hints point at the
	// wrong domain while the data stays put.
	bad := core.Recolored{Spec: spec, ColorFn: func(k core.Key) int {
		return (spec.Color(k) + 10) % 20
	}}
	badRes, err := Run(bad, sink, Options{Workers: 20, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if badRes.Makespan <= good.Makespan {
		t.Fatalf("bad coloring (%d) not slower than good (%d)", badRes.Makespan, good.Makespan)
	}
}

func TestSerialTime(t *testing.T) {
	fp := core.Footprint{Compute: 10, OwnBytes: 100, PredBytes: 5, SpreadBytes: 20}
	spec, sink, n := gridSpec(10, 10, 4, fp)
	got, err := SerialTime(spec, sink, numa.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// Each task: 10 compute + 100 own + 20 spread + 5 per pred edge.
	edges := 0
	for k := 0; k < n; k++ {
		edges += len(spec.Predecessors(core.Key(k)))
	}
	want := int64(n*(10+100+20) + edges*5)
	if got != want {
		t.Fatalf("serial time = %d, want %d", got, want)
	}
}

func TestSerialTimeVsSimP1(t *testing.T) {
	// A 1-worker simulated run should take at least the serial time
	// (it adds scheduling overheads) and not be wildly larger.
	spec, sink, _ := gridSpec(20, 20, 1, testFP)
	serial, err := SerialTime(spec, sink, numa.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, sink, Options{Workers: 1, Policy: core.NabbitPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < serial {
		t.Fatalf("P=1 makespan %d below serial time %d", res.Makespan, serial)
	}
	if res.Makespan > serial*2 {
		t.Fatalf("P=1 makespan %d more than 2x serial time %d (overheads too large)",
			res.Makespan, serial)
	}
}

func TestFirstWorkTimesGrowWithScale(t *testing.T) {
	// Fig. 9: average time to first work grows with worker count.
	spec, sink, _ := gridSpec(60, 60, 80, testFP)
	var prev int64 = -1
	for _, p := range []int{4, 20, 80} {
		specP, sinkP, _ := gridSpec(60, 60, p, testFP)
		_ = spec
		_ = sink
		res, err := Run(specP, sinkP, Options{Workers: p, Policy: core.NabbitCPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		ttfw := res.AvgTimeToFirstWork()
		if ttfw < prev {
			// Not strictly monotone in general, but across this range
			// it should not shrink.
			t.Logf("warning: time-to-first-work fell from %d to %d at P=%d", prev, ttfw, p)
		}
		prev = ttfw
	}
}

func TestOptionsValidation(t *testing.T) {
	spec, sink, _ := gridSpec(5, 5, 2, testFP)
	if _, err := Run(spec, sink, Options{Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := Run(spec, sink, Options{
		Workers:  4,
		Topology: numa.Topology{Workers: 8, CoresPerDomain: 10},
	}); err == nil {
		t.Fatal("mismatched topology accepted")
	}
	bad := Options{Workers: 4, Cost: numa.CostModel{LocalByteCost: -1}}
	if _, err := Run(spec, sink, bad); err == nil {
		t.Fatal("invalid cost model accepted")
	}
}

func TestCycleDeadlockDetected(t *testing.T) {
	spec := core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			// 1 <-> 2 cycle below sink 0.
			switch k {
			case 0:
				return []core.Key{1}
			case 1:
				return []core.Key{2}
			default:
				return []core.Key{1}
			}
		},
		FootprintFn: func(core.Key) core.Footprint { return core.Footprint{Compute: 1} },
	}
	// Both worker counts exercise the deadlock exits: the lone worker's
	// empty-deque fast path and the multi-worker drained event queue.
	for _, workers := range []int{1, 4} {
		_, err := Run(spec, 0, Options{Workers: workers, Policy: core.NabbitPolicy()})
		if err == nil {
			t.Fatalf("workers=%d: cyclic graph did not error", workers)
		}
		if !errors.Is(err, core.ErrStalled) {
			t.Fatalf("workers=%d: err = %v, want errors.Is(err, core.ErrStalled)", workers, err)
		}
		var se *core.StallError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: err %T does not unwrap to *core.StallError", workers, err)
		}
		want := []core.Key{0, 1, 2} // the whole graph hangs below the cycle
		if se.Sink != 0 || se.PendingTotal != len(want) || !slices.Equal(se.Pending, want) {
			t.Fatalf("workers=%d: stall diagnostics = sink %d pending %v (total %d), want pending %v",
				workers, se.Sink, se.Pending, se.PendingTotal, want)
		}
	}
}

func TestSingleNode(t *testing.T) {
	spec := core.FuncSpec{FootprintFn: func(core.Key) core.Footprint {
		return core.Footprint{Compute: 100}
	}}
	res, err := Run(spec, 7, Options{Workers: 4, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNodes() != 1 {
		t.Fatalf("executed %d, want 1", res.TotalNodes())
	}
	if res.Workers[0].NodesExecuted != 1 {
		t.Fatal("the seeding worker should have executed the only node")
	}
}

func TestBusyPlusIdleSane(t *testing.T) {
	spec, sink, _ := gridSpec(20, 20, 8, testFP)
	res, err := Run(spec, sink, Options{Workers: 8, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	for i, ws := range res.Workers {
		if ws.BusyTime > res.Makespan {
			t.Fatalf("worker %d busy %d exceeds makespan %d", i, ws.BusyTime, res.Makespan)
		}
	}
}
