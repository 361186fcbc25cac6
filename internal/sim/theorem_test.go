package sim

import (
	"math"
	"testing"

	"nabbitc/internal/core"
	"nabbitc/internal/numa"
)

// Theorem 1 (empirical form): NabbitC executes G in
// O(T1/P + T∞ + M·lg d + lg(P/ε) + C) time. The simulator is the
// machine the theorem's abstract costs map onto, so we can check the
// bound holds with a small constant across graph shapes, policies, and
// core counts. The remote penalty inflates constants (the theorem's W(u)
// is location-independent; we charge T1 all-local), so the slack constant
// covers penalty × scheduling effects.
func TestTheorem1BoundHolds(t *testing.T) {
	m := numa.DefaultCostModel()
	shapes := []struct {
		name string
		spec core.FuncSpec
		sink core.Key
	}{}
	// Wide stencil: high parallelism.
	{
		s, sink, _ := stencilSpec(6, 300, 16, testFP)
		shapes = append(shapes, struct {
			name string
			spec core.FuncSpec
			sink core.Key
		}{"stencil", s, sink})
	}
	// Wavefront: ramping parallelism, long paths.
	{
		s, sink, _ := gridSpec(40, 40, 16, testFP)
		shapes = append(shapes, struct {
			name string
			spec core.FuncSpec
			sink core.Key
		}{"wavefront", s, sink})
	}
	// Chain: pure span.
	{
		s, sink := chainSpecFor(400)
		shapes = append(shapes, struct {
			name string
			spec core.FuncSpec
			sink core.Key
		}{"chain", s, sink})
	}

	for _, sh := range shapes {
		t1, tinf, mpath, d, err := WorkSpan(sh.spec, sh.sink, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4, 16, 64} {
			for _, pol := range []core.Policy{core.NabbitPolicy(), core.NabbitCPolicy()} {
				res, err := Run(sh.spec, sh.sink, Options{Workers: p, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				bound := theorem1Bound(m, p, t1, tinf, mpath, d, res.FirstStealChecks())
				if float64(res.Makespan) > bound {
					t.Errorf("%s P=%d colored=%v: makespan %d exceeds bound %.0f (T1=%d T∞=%d M=%d d=%d)",
						sh.name, p, pol.Colored, res.Makespan, bound, t1, tinf, mpath, d)
				}
			}
		}
	}
}

// theorem1Bound is the bound TestTheorem1BoundHolds and the random-DAG
// property check a makespan against: the theorem's terms for a graph of
// work t1, span tinf, longest path mpath and maximum in-degree d on p
// workers whose enforced first steals made checks probes (the C term),
// times a slack constant that covers the remote penalty (2.5x) × the
// scheduling constants.
func theorem1Bound(m numa.CostModel, p int, t1, tinf int64, mpath, d int, checks int64) float64 {
	const slack = 6.0
	lgd := math.Log2(float64(d) + 2)
	cTerm := float64(checks) * float64(m.StealAttemptCost)
	return slack * (float64(t1)/float64(p) + float64(tinf) +
		float64(mpath)*lgd*float64(m.EdgeOverhead) +
		math.Log2(float64(p)+2)*float64(m.StealSuccessCost) +
		cTerm/float64(p))
}

// chainSpecFor builds a pure chain of n tasks.
func chainSpecFor(n int) (core.FuncSpec, core.Key) {
	return core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			if k == 0 {
				return nil
			}
			return []core.Key{k - 1}
		},
		ColorFn:     func(k core.Key) int { return int(k) % 4 },
		FootprintFn: func(core.Key) core.Footprint { return testFP },
	}, core.Key(n - 1)
}

// The work and span must themselves be consistent: T∞ <= T1, and a
// 1-worker run costs at least T1 (it pays every node all-local plus any
// remote traffic).
func TestWorkSpanConsistency(t *testing.T) {
	m := numa.DefaultCostModel()
	spec, sink, _ := gridSpec(20, 20, 8, testFP)
	t1, tinf, mpath, d, err := WorkSpan(spec, sink, m)
	if err != nil {
		t.Fatal(err)
	}
	if tinf > t1 {
		t.Fatalf("span %d exceeds work %d", tinf, t1)
	}
	if mpath != 39 { // 20+20-1 nodes on the diagonal path
		t.Fatalf("longest path = %d, want 39", mpath)
	}
	if d != 2 {
		t.Fatalf("max degree = %d, want 2", d)
	}
	res, err := Run(spec, sink, Options{Workers: 1, Policy: core.NabbitPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < t1 {
		t.Fatalf("1-worker makespan %d below work %d", res.Makespan, t1)
	}
}

// Speedup can never exceed P (no superlinearity in the model), and the
// parallel makespan can never beat the span.
func TestSpeedupBounds(t *testing.T) {
	m := numa.DefaultCostModel()
	spec, sink, _ := stencilSpec(5, 200, 20, testFP)
	t1, tinf, _, _, err := WorkSpan(spec, sink, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8, 20, 80} {
		res, err := Run(spec, sink, Options{Workers: p, Policy: core.NabbitCPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan*int64(p) < t1 {
			t.Fatalf("P=%d: superlinear speedup (makespan %d, work %d)", p, res.Makespan, t1)
		}
		if res.Makespan < tinf {
			t.Fatalf("P=%d: makespan %d below span %d", p, res.Makespan, tinf)
		}
	}
}
