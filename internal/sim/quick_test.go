package sim

import (
	"slices"
	"testing"
	"testing/quick"

	"nabbitc/internal/core"
	"nabbitc/internal/numa"
	"nabbitc/internal/xrand"
)

// randomDAG builds a pseudo-random layered DAG with random footprints and
// colors (including invalid ones).
func randomDAG(seed uint64, layers, width, workers int) (core.FuncSpec, core.Key) {
	r := xrand.New(seed)
	const stride = 1 << 16
	key := func(l, i int) core.Key { return core.Key(l*stride + i) }

	counts := make([]int, layers)
	for l := range counts {
		counts[l] = 1 + r.Intn(width)
	}
	preds := map[core.Key][]core.Key{}
	colors := map[core.Key]int{}
	fps := map[core.Key]core.Footprint{}
	for l := 0; l < layers; l++ {
		for i := 0; i < counts[l]; i++ {
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
			fan := r.Intn(4)
			for f := 0; f < fan; f++ {
				pl := r.Intn(l)
				preds[k] = append(preds[k], key(pl, r.Intn(counts[pl])))
			}
		}
	}
	sink := core.Key(layers * stride)
	colors[sink] = 0
	fps[sink] = core.Footprint{Compute: 1}
	last := layers - 1
	for i := 0; i < counts[last]; i++ {
		preds[sink] = append(preds[sink], key(last, i))
	}
	return core.FuncSpec{
		PredsFn:     func(k core.Key) []core.Key { return preds[k] },
		ColorFn:     func(k core.Key) int { return colors[k] },
		FootprintFn: func(k core.Key) core.Footprint { return fps[k] },
	}, sink
}

// quickPolicies are the three scheduling policies the random-DAG properties
// run under; the hierarchical one gets a synthetic multi-socket topology so
// its socket tiers engage at these worker counts.
func quickPolicies(workers int, seed uint64) []Options {
	opts := []Options{
		{Workers: workers, Policy: core.NabbitCPolicy()},
		{Workers: workers, Policy: core.NabbitPolicy()},
		{Workers: workers, Policy: core.NabbitCHierPolicy(),
			Topology: numa.Topology{Workers: workers, CoresPerDomain: 3}},
	}
	for i := range opts {
		opts[i].Policy.FirstStealMaxRounds = 2
		opts[i].Policy.Seed = seed + 7
	}
	return opts
}

// quickCount is how many random DAGs each property draws.
const quickCount = 2000

// Property: on any random DAG, under every policy and any worker count,
// the simulator executes every reachable task exactly once, in dependence
// order, deterministically, and within Theorem 1's (empirical) bound.
func TestQuickSimRandomDAGs(t *testing.T) {
	t.Parallel()
	m := numa.DefaultCostModel()
	f := func(seed uint64, layersRaw, widthRaw, workersRaw uint8) bool {
		layers := int(layersRaw)%5 + 2
		width := int(widthRaw)%10 + 1
		workers := int(workersRaw)%20 + 1

		spec, sink := randomDAG(seed, layers, width, workers)
		order, err := core.TopoOrder(spec, sink, 0)
		if err != nil {
			t.Log(err)
			return false
		}
		t1, tinf, mpath, d, err := WorkSpan(spec, sink, m)
		if err != nil {
			t.Log(err)
			return false
		}

		for pi, opts := range quickPolicies(workers, seed) {
			finished := make(map[core.Key]int, len(order))
			opts.OnComplete = func(_ int64, _ int, k core.Key) {
				finished[k] = len(finished)
			}
			res, err := Run(spec, sink, opts)
			if err != nil {
				t.Logf("seed %d policy %d: %v", seed, pi, err)
				return false
			}
			if int(res.TotalNodes()) != len(order) || len(finished) != len(order) {
				t.Logf("seed %d policy %d: executed %d (%d distinct), want %d",
					seed, pi, res.TotalNodes(), len(finished), len(order))
				return false
			}
			for _, k := range order {
				s, ok := finished[k]
				if !ok {
					t.Logf("seed %d policy %d: task %d never finished", seed, pi, k)
					return false
				}
				for _, p := range spec.Predecessors(k) {
					if finished[p] > s {
						t.Logf("seed %d policy %d: task %d before pred %d", seed, pi, k, p)
						return false
					}
				}
			}
			if bound := theorem1Bound(m, workers, t1, tinf, mpath, d, res.FirstStealChecks()); float64(res.Makespan) > bound {
				t.Logf("seed %d policy %d P=%d: makespan %d exceeds bound %.0f (T1=%d T∞=%d M=%d d=%d)",
					seed, pi, workers, res.Makespan, bound, t1, tinf, mpath, d)
				return false
			}
			// Determinism: a second run (without the hook) must agree on
			// makespan and per-worker stats; one policy per DAG keeps the
			// property inside its time budget.
			if pi != int(seed%3) {
				continue
			}
			opts.OnComplete = nil
			res2, err := Run(spec, sink, opts)
			if err != nil || res2.Makespan != res.Makespan || !slices.Equal(res2.Workers, res.Workers) {
				t.Logf("seed %d policy %d: rerun differs (makespan %d vs %d)", seed, pi, res2.Makespan, res.Makespan)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount}); err != nil {
		t.Fatal(err)
	}
}

// Property: makespan never beats the span nor the work/P of the same
// graph (no free lunch from scheduling), on any random DAG.
func TestQuickSimLowerBounds(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, workersRaw uint8) bool {
		workers := int(workersRaw)%16 + 1
		spec, sink := randomDAG(seed, 4, 8, workers)
		opts, err := (Options{Workers: workers, Policy: core.NabbitCPolicy()}).withDefaults()
		if err != nil {
			return false
		}
		t1, tinf, _, _, err := WorkSpan(spec, sink, opts.Cost)
		if err != nil {
			return false
		}
		res, err := Run(spec, sink, Options{Workers: workers, Policy: core.NabbitCPolicy()})
		if err != nil {
			return false
		}
		if res.Makespan < tinf {
			t.Logf("seed %d: makespan %d below span %d", seed, res.Makespan, tinf)
			return false
		}
		if res.Makespan*int64(workers) < t1 {
			t.Logf("seed %d: superlinear (makespan %d, work %d, P %d)",
				seed, res.Makespan, t1, workers)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount}); err != nil {
		t.Fatal(err)
	}
}
