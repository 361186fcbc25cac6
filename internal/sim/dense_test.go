package sim

import (
	"testing"
	"testing/quick"

	"nabbitc/internal/core"
	"nabbitc/internal/numa"
	"nabbitc/internal/xrand"
)

// randomDenseDAG builds a pseudo-random layered DAG over a dense key
// universe [0, layers*width] (sink = layers*width) that declares its
// bound. Colors include out-of-range ones, exercising the layout's
// overflow home bucket.
func randomDenseDAG(seed uint64, layers, width, workers int) (core.FuncSpec, core.Key) {
	r := xrand.New(seed)
	key := func(l, i int) core.Key { return core.Key(l*width + i) }
	n := layers * width
	sink := core.Key(n)

	preds := make([][]core.Key, n+1)
	colors := make([]int, n+1)
	fps := make([]core.Footprint, n+1)
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			k := key(l, i)
			if r.Intn(10) == 0 {
				colors[k] = -1
			} else {
				colors[k] = r.Intn(workers)
			}
			fps[k] = core.Footprint{
				Compute:     int64(r.Intn(1000)),
				OwnBytes:    int64(r.Intn(4000)),
				PredBytes:   int64(r.Intn(64)),
				SpreadBytes: int64(r.Intn(500)),
			}
			if l == 0 {
				continue
			}
			fan := 1 + r.Intn(3)
			for f := 0; f < fan; f++ {
				pl := r.Intn(l)
				preds[k] = append(preds[k], key(pl, r.Intn(width)))
			}
		}
	}
	colors[sink] = 0
	fps[sink] = core.Footprint{Compute: 1}
	for i := 0; i < width; i++ {
		preds[sink] = append(preds[sink], key(layers-1, i))
	}
	return core.FuncSpec{
		PredsFn:     func(k core.Key) []core.Key { return preds[k] },
		ColorFn:     func(k core.Key) int { return colors[k] },
		FootprintFn: func(k core.Key) core.Footprint { return fps[k] },
		BoundFn:     func() int { return n + 1 },
	}, sink
}

// completion is one OnComplete observation; two runs whose completion
// sequences are element-wise equal executed the same schedule.
type completion struct {
	t int64
	w int
	k core.Key
}

func runSchedule(t *testing.T, spec core.CostSpec, sink core.Key, opts Options) ([]completion, *Result) {
	t.Helper()
	var sched []completion
	opts.OnComplete = func(vt int64, w int, k core.Key) {
		sched = append(sched, completion{t: vt, w: w, k: k})
	}
	res, err := Run(spec, sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sched, res
}

// Property: on any random dense DAG, under any policy, the spec as
// declared and the same spec with its bound hidden produce identical
// schedules — the same tasks, on the same workers, at the same virtual
// times, in the same order — and identical end-to-end results. Where the
// node table finds a page is storage; it must never leak into scheduling.
func TestQuickDenseShardedScheduleIdentity(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, layersRaw, widthRaw, workersRaw uint8) bool {
		layers := int(layersRaw)%5 + 2
		width := int(widthRaw)%10 + 1
		workers := int(workersRaw)%20 + 1

		spec, sink := randomDenseDAG(seed, layers, width, workers)

		var pol core.Policy
		var topo numa.Topology
		switch seed % 3 {
		case 0:
			pol = core.NabbitCPolicy()
		case 1:
			pol = core.NabbitPolicy()
		default:
			pol = core.NabbitCHierPolicy()
			topo = numa.Topology{Workers: workers, CoresPerDomain: 3}
		}
		pol.FirstStealMaxRounds = 2
		pol.Seed = seed + 7

		opts := Options{Workers: workers, Policy: pol, Topology: topo}
		hidden := spec
		hidden.BoundFn = nil

		schedB, resB := runSchedule(t, spec, sink, opts)
		schedU, resU := runSchedule(t, hidden, sink, opts)

		if len(schedB) != len(schedU) {
			t.Logf("seed %d: bounded ran %d completions, unbounded %d", seed, len(schedB), len(schedU))
			return false
		}
		for i := range schedB {
			if schedB[i] != schedU[i] {
				t.Logf("seed %d: completion %d differs: bounded %+v, unbounded %+v",
					seed, i, schedB[i], schedU[i])
				return false
			}
		}
		if resB.Makespan != resU.Makespan {
			t.Logf("seed %d: makespan bounded %d != unbounded %d", seed, resB.Makespan, resU.Makespan)
			return false
		}
		if resB.NodesCreated != resU.NodesCreated {
			t.Logf("seed %d: created bounded %d != unbounded %d", seed, resB.NodesCreated, resU.NodesCreated)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: quickCount}
	if testing.Short() {
		cfg.MaxCount = quickCount / 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
