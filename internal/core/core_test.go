package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nabbitc/internal/numa"
)

// recorder tracks task executions: count per key and a global completion
// sequence, for verifying exactly-once execution and dependence order.
type recorder struct {
	mu    sync.Mutex
	count map[Key]int
	seq   map[Key]int
	next  int
}

func newRecorder() *recorder {
	return &recorder{count: map[Key]int{}, seq: map[Key]int{}}
}

func (r *recorder) record(k Key) {
	r.mu.Lock()
	r.count[k]++
	r.seq[k] = r.next
	r.next++
	r.mu.Unlock()
}

// verify checks exactly-once execution and that every task completed after
// all of its predecessors.
func (r *recorder) verify(t *testing.T, spec Spec, keys []Key) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.count) != len(keys) {
		t.Fatalf("executed %d distinct tasks, want %d", len(r.count), len(keys))
	}
	for _, k := range keys {
		if c := r.count[k]; c != 1 {
			t.Fatalf("task %d executed %d times", k, c)
		}
		for _, p := range spec.Predecessors(k) {
			if r.seq[p] > r.seq[k] {
				t.Fatalf("task %d (seq %d) ran before predecessor %d (seq %d)",
					k, r.seq[k], p, r.seq[p])
			}
		}
	}
}

// chainSpec returns a linear chain 0 <- 1 <- ... <- n-1 (sink = n-1).
func chainSpec(n int, rec *recorder) (Spec, Key) {
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			if k == 0 {
				return nil
			}
			return []Key{k - 1}
		},
		ColorFn:   func(k Key) int { return int(k) % 4 },
		ComputeFn: rec.record,
	}
	return spec, Key(n - 1)
}

// layeredDAG builds a deterministic layered DAG: layers × width nodes,
// each depending on a few nodes of the previous layer, plus a sink
// depending on the whole last layer. Returns the spec, sink key, and all
// keys.
func layeredDAG(layers, width int, rec *recorder, colorOf func(Key) int) (Spec, Key, []Key) {
	const stride = 1 << 20
	key := func(l, i int) Key { return Key(l*stride + i) }
	sink := Key((layers + 1) * stride)
	var keys []Key
	preds := map[Key][]Key{}
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			k := key(l, i)
			keys = append(keys, k)
			if l == 0 {
				continue
			}
			// Deterministic pseudo-random fan-in of 1..3 edges.
			fan := 1 + (l*7+i*13)%3
			for f := 0; f < fan; f++ {
				j := (i*31 + f*17 + l*5) % width
				preds[k] = append(preds[k], key(l-1, j))
			}
		}
	}
	last := make([]Key, width)
	for i := 0; i < width; i++ {
		last[i] = key(layers-1, i)
	}
	preds[sink] = last
	keys = append(keys, sink)

	spec := FuncSpec{
		PredsFn:   func(k Key) []Key { return preds[k] },
		ColorFn:   colorOf,
		ComputeFn: rec.record,
	}
	return spec, sink, keys
}

func runBoth(t *testing.T, name string, fn func(t *testing.T, policy Policy)) {
	t.Helper()
	t.Run(name+"/nabbit", func(t *testing.T) { fn(t, NabbitPolicy()) })
	t.Run(name+"/nabbitc", func(t *testing.T) { fn(t, NabbitCPolicy()) })
}

func TestSingleNodeGraph(t *testing.T) {
	runBoth(t, "single", func(t *testing.T, p Policy) {
		rec := newRecorder()
		spec := FuncSpec{ComputeFn: rec.record}
		st, err := Run(spec, 42, Options{Workers: 4, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if st.TotalNodes() != 1 || st.NodesCreated != 1 {
			t.Fatalf("nodes executed=%d created=%d, want 1,1", st.TotalNodes(), st.NodesCreated)
		}
		rec.verify(t, spec, []Key{42})
	})
}

func TestChain(t *testing.T) {
	runBoth(t, "chain", func(t *testing.T, p Policy) {
		const n = 500
		rec := newRecorder()
		spec, sink := chainSpec(n, rec)
		st, err := Run(spec, sink, Options{Workers: 8, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if st.TotalNodes() != n {
			t.Fatalf("executed %d, want %d", st.TotalNodes(), n)
		}
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(i)
		}
		rec.verify(t, spec, keys)
	})
}

func TestDiamond(t *testing.T) {
	// 0 <- {1,2,3} <- 4
	preds := map[Key][]Key{1: {0}, 2: {0}, 3: {0}, 4: {1, 2, 3}}
	runBoth(t, "diamond", func(t *testing.T, p Policy) {
		rec := newRecorder()
		spec := FuncSpec{
			PredsFn:   func(k Key) []Key { return preds[k] },
			ColorFn:   func(k Key) int { return int(k) % 2 },
			ComputeFn: rec.record,
		}
		if _, err := Run(spec, 4, Options{Workers: 4, Policy: p}); err != nil {
			t.Fatal(err)
		}
		rec.verify(t, spec, []Key{0, 1, 2, 3, 4})
	})
}

func TestLayeredDAGManyWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 16} {
		runBoth(t, "dag", func(t *testing.T, p Policy) {
			rec := newRecorder()
			spec, sink, keys := layeredDAG(12, 40, rec, func(k Key) int {
				return int(k) % workers
			})
			st, err := Run(spec, sink, Options{Workers: workers, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			if int(st.TotalNodes()) != len(keys) {
				t.Fatalf("executed %d, want %d", st.TotalNodes(), len(keys))
			}
			rec.verify(t, spec, keys)
		})
	}
}

func TestDuplicatePredecessorKeys(t *testing.T) {
	// Task 2 lists task 1 twice; the join protocol must account both.
	preds := map[Key][]Key{1: {0}, 2: {1, 1, 0}}
	runBoth(t, "dup", func(t *testing.T, p Policy) {
		rec := newRecorder()
		spec := FuncSpec{
			PredsFn:   func(k Key) []Key { return preds[k] },
			ComputeFn: rec.record,
		}
		if _, err := Run(spec, 2, Options{Workers: 4, Policy: p}); err != nil {
			t.Fatal(err)
		}
		rec.verify(t, spec, []Key{0, 1, 2})
	})
}

func TestMoreWorkersThanNodes(t *testing.T) {
	runBoth(t, "wide", func(t *testing.T, p Policy) {
		rec := newRecorder()
		spec, sink := chainSpec(3, rec)
		st, err := Run(spec, sink, Options{Workers: 16, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if st.TotalNodes() != 3 {
			t.Fatalf("executed %d, want 3", st.TotalNodes())
		}
	})
}

func TestInvalidColoringCompletes(t *testing.T) {
	// All tasks report color -1: every colored steal misses and the
	// forced first steal must give up rather than spin forever.
	rec := newRecorder()
	spec, sink, keys := layeredDAG(10, 30, rec, func(Key) int { return -1 })
	p := NabbitCPolicy()
	p.FirstStealMaxRounds = 2 // keep the give-up path fast
	st, err := Run(spec, sink, Options{Workers: 8, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	rec.verify(t, spec, keys)
	if _, colored := st.SuccessfulSteals(); colored != 0 {
		t.Fatalf("%d colored steals succeeded with an invalid coloring", colored)
	}
	for i, ws := range st.Workers {
		if ws.FirstStealForcedOK {
			t.Fatalf("worker %d reports a successful forced colored steal", i)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	rec := newRecorder()
	spec, sink, keys := layeredDAG(8, 32, rec, func(k Key) int { return int(k) % 4 })
	st, err := Run(spec, sink, Options{Workers: 4, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if int(st.TotalNodes()) != len(keys) {
		t.Fatalf("TotalNodes = %d, want %d", st.TotalNodes(), len(keys))
	}
	if st.NodesCreated != len(keys) {
		t.Fatalf("NodesCreated = %d, want %d", st.NodesCreated, len(keys))
	}
	// 4 workers fit in one NUMA domain (Paper topology: 10 per domain),
	// so every access must be local.
	if a := st.Accesses(); a.Remote != 0 {
		t.Fatalf("remote accesses on a one-domain machine: %+v", a)
	}
	// Access count = nodes + total pred edges.
	edges := 0
	for _, k := range keys {
		edges += len(spec.Predecessors(k))
	}
	if got := st.Accesses().Total(); got != int64(len(keys)+edges) {
		t.Fatalf("accesses = %d, want %d", got, len(keys)+edges)
	}
	if st.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
}

func TestRemoteAccountingTwoDomains(t *testing.T) {
	// 20 workers = 2 domains. Force every task to color 0 (domain 0) and
	// make the graph a chain so it cannot spread: worker 0 should do all
	// work locally under NabbitC, so remote% must be far below the
	// random-steal expectation.
	rec := newRecorder()
	const n = 2000
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			if k == 0 {
				return nil
			}
			return []Key{k - 1}
		},
		ColorFn:   func(Key) int { return 0 },
		ComputeFn: rec.record,
	}
	st, err := Run(spec, n-1, Options{Workers: 20, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if int(st.TotalNodes()) != n {
		t.Fatalf("executed %d, want %d", st.TotalNodes(), n)
	}
	if pct := st.RemotePercent(); pct > 50 {
		t.Fatalf("remote%% = %.1f for an all-color-0 chain under NabbitC", pct)
	}
}

func TestRecoloredKeepsHome(t *testing.T) {
	base := FuncSpec{ColorFn: func(k Key) int { return int(k) }}
	r := Recolored{Spec: base, ColorFn: func(k Key) int { return int(k) + 100 }}
	if r.Color(5) != 105 {
		t.Fatalf("Color = %d, want 105", r.Color(5))
	}
	if HomeOf(r, 5) != 5 {
		t.Fatalf("Home = %d, want 5 (data does not move)", HomeOf(r, 5))
	}
	if HomeOf(base, 7) != 7 {
		t.Fatalf("HomeOf plain spec = %d, want its color", HomeOf(base, 7))
	}
}

func TestFuncSpecDefaults(t *testing.T) {
	var s FuncSpec
	if s.Predecessors(1) != nil {
		t.Fatal("default preds not nil")
	}
	if s.Color(1) != 0 {
		t.Fatal("default color not 0")
	}
	s.Compute(1) // must not panic
	if fp := s.FootprintOf(1); fp.Compute != 1 {
		t.Fatalf("default footprint = %+v", fp)
	}
}

// TestOptionsValidation: every option value withDefaults rejects makes
// NewEngine fail with an error naming the offending setting.
func TestOptionsValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string // substring of the error
	}{
		{"mismatched topology", Options{Workers: 4, Topology: numa.Topology{Workers: 8, CoresPerDomain: 10}}, "topology"},
		{"negative MaxAttempts", Options{Retry: RetryPolicy{MaxAttempts: -1}}, "Retry.MaxAttempts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Workers = max(tc.opts.Workers, 1)
			e, err := NewEngine(FuncSpec{}, tc.opts)
			if err == nil {
				e.Close()
				t.Fatalf("NewEngine accepted %+v", tc.opts)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestTopoOrder(t *testing.T) {
	preds := map[Key][]Key{1: {0}, 2: {0}, 3: {1, 2}}
	spec := FuncSpec{PredsFn: func(k Key) []Key { return preds[k] }}
	order, err := TopoOrder(spec, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	pos := map[Key]int{}
	for i, k := range order {
		pos[k] = i
	}
	for k, ps := range preds {
		for _, p := range ps {
			if pos[p] > pos[k] {
				t.Fatalf("order %v places %d after %d", order, p, k)
			}
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	preds := map[Key][]Key{0: {2}, 1: {0}, 2: {1}, 3: {2}}
	spec := FuncSpec{PredsFn: func(k Key) []Key { return preds[k] }}
	if _, err := TopoOrder(spec, 3, 0); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTopoOrderSelfLoop(t *testing.T) {
	spec := FuncSpec{PredsFn: func(k Key) []Key {
		if k == 1 {
			return []Key{1}
		}
		return nil
	}}
	if _, err := TopoOrder(spec, 1, 0); err == nil {
		t.Fatal("self-loop not detected")
	}
}

func TestTopoOrderLimit(t *testing.T) {
	// Unbounded growth: each key depends on key+1.
	spec := FuncSpec{PredsFn: func(k Key) []Key { return []Key{k + 1} }}
	if _, err := TopoOrder(spec, 0, 1000); err == nil {
		t.Fatal("node limit not enforced")
	}
}

func TestRunSerial(t *testing.T) {
	rec := newRecorder()
	spec, sink, keys := layeredDAG(6, 10, rec, func(Key) int { return 0 })
	n, err := RunSerial(spec, sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("serial executed %d, want %d", n, len(keys))
	}
	rec.verify(t, spec, keys)
}

func TestSerialParallelSameResult(t *testing.T) {
	// A reduction over a diamond DAG: each task adds its key into an
	// accumulator; parallel and serial totals must agree.
	build := func() (Spec, *atomic.Int64) {
		var sum atomic.Int64
		spec := FuncSpec{
			PredsFn: func(k Key) []Key {
				if k == 0 {
					return nil
				}
				if k < 100 {
					return []Key{0}
				}
				var ps []Key
				for i := Key(1); i < 100; i++ {
					ps = append(ps, i)
				}
				return ps
			},
			ColorFn:   func(k Key) int { return int(k) % 8 },
			ComputeFn: func(k Key) { sum.Add(int64(k)) },
		}
		return spec, &sum
	}
	specS, sumS := build()
	if _, err := RunSerial(specS, 100); err != nil {
		t.Fatal(err)
	}
	specP, sumP := build()
	if _, err := Run(specP, 100, Options{Workers: 8, Policy: NabbitCPolicy()}); err != nil {
		t.Fatal(err)
	}
	if sumS.Load() != sumP.Load() {
		t.Fatalf("serial sum %d != parallel sum %d", sumS.Load(), sumP.Load())
	}
}

func TestFirstStealChecksCounted(t *testing.T) {
	rec := newRecorder()
	spec, sink, _ := layeredDAG(10, 64, rec, func(k Key) int { return int(k) % 8 })
	// Give every task a blocking sliver of work: with trivial computes
	// the whole run can finish on worker 0 before the other workers'
	// goroutines are ever scheduled (certain at GOMAXPROCS=1), and no
	// enforcement probe happens. Sleeping yields the P, so the idle
	// workers get to run their probe loops mid-run.
	fs := spec.(FuncSpec)
	inner := fs.ComputeFn
	fs.ComputeFn = func(k Key) {
		inner(k)
		time.Sleep(20 * time.Microsecond)
	}
	st, err := Run(fs, sink, Options{Workers: 8, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	// Workers other than 0 must have made at least one enforcement probe
	// (they all start idle).
	if st.FirstStealChecks() == 0 {
		t.Fatal("no first-steal checks recorded")
	}
}

func TestFootprintCost(t *testing.T) {
	topo := numa.Paper(20)
	m := numa.DefaultCostModel()
	fp := Footprint{Compute: 100, OwnBytes: 1000, PredBytes: 10, SpreadBytes: 0}
	predColor := func(i int) int { return 15 } // remote to worker 0
	// Worker 0, home 0: own bytes local; 2 preds remote.
	got := fp.Cost(m, topo, 0, 0, 2, predColor)
	want := int64(100 + 1000 + 2*25) // compute + local own + 2×(10B×2.5)
	if got != want {
		t.Fatalf("cost = %d, want %d", got, want)
	}
	// Same task on a remote worker: own bytes now remote.
	got = fp.Cost(m, topo, 15, 0, 0, nil)
	want = int64(100 + 2500)
	if got != want {
		t.Fatalf("remote cost = %d, want %d", got, want)
	}
}
