package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"nabbitc/internal/numa"
	"nabbitc/internal/xrand"
)

// randomDAG builds a pseudo-random layered DAG from a seed: up to
// `layers` layers of up to `width` tasks, each with 0-4 predecessors in
// earlier layers (not necessarily adjacent), plus a sink over the final
// layer. Colors are drawn randomly too, including a sprinkling of invalid
// ones — the scheduler must tolerate any coloring.
func randomDAG(seed uint64, layers, width, workers int) (Spec, Key, []Key, *recorder) {
	r := xrand.New(seed)
	const stride = 1 << 16
	key := func(l, i int) Key { return Key(l*stride + i) }

	counts := make([]int, layers)
	for l := range counts {
		counts[l] = 1 + r.Intn(width)
	}
	preds := map[Key][]Key{}
	colors := map[Key]int{}
	var keys []Key
	for l := 0; l < layers; l++ {
		for i := 0; i < counts[l]; i++ {
			k := key(l, i)
			keys = append(keys, k)
			if r.Intn(10) == 0 {
				colors[k] = -1 // invalid on purpose
			} else {
				colors[k] = r.Intn(workers)
			}
			if l == 0 {
				continue
			}
			fan := r.Intn(5)
			for f := 0; f < fan; f++ {
				pl := r.Intn(l)
				preds[k] = append(preds[k], key(pl, r.Intn(counts[pl])))
			}
		}
	}
	sink := Key(layers * stride)
	keys = append(keys, sink)
	colors[sink] = 0
	last := layers - 1
	for i := 0; i < counts[last]; i++ {
		preds[sink] = append(preds[sink], key(last, i))
	}

	rec := newRecorder()
	spec := FuncSpec{
		PredsFn:   func(k Key) []Key { return preds[k] },
		ColorFn:   func(k Key) int { return colors[k] },
		ComputeFn: rec.record,
	}
	return spec, sink, keys, rec
}

// reachable returns the keys actually reachable from the sink (layered
// construction can orphan tasks no path references).
func reachable(spec Spec, sink Key) []Key {
	order, err := TopoOrder(spec, sink, 0)
	if err != nil {
		panic(err)
	}
	return order
}

// Property: for any random DAG, policy, and worker count, every reachable
// task executes exactly once, after all its predecessors.
func TestQuickRandomDAGs(t *testing.T) {
	f := func(seed uint64, layersRaw, widthRaw, workersRaw uint8) bool {
		layers := int(layersRaw)%6 + 2
		width := int(widthRaw)%12 + 1
		workers := int(workersRaw)%7 + 1
		colored := seed%2 == 0

		spec, sink, _, rec := randomDAG(seed, layers, width, workers)
		keys := reachable(spec, sink)

		pol := NabbitCPolicy()
		pol.Colored = colored
		pol.FirstStealMaxRounds = 2
		pol.Seed = seed + 1
		var topo numa.Topology
		if seed%3 == 0 {
			// Hierarchical protocol on a synthetic two-core-per-socket
			// topology (multi-socket whenever workers > 2).
			pol.Hierarchical = true
			topo = numa.Topology{Workers: workers, CoresPerDomain: 2}
		}
		st, err := Run(spec, sink, Options{Workers: workers, Policy: pol, Topology: topo})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if int(st.TotalNodes()) != len(keys) {
			t.Logf("seed %d: executed %d, want %d", seed, st.TotalNodes(), len(keys))
			return false
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for _, k := range keys {
			if rec.count[k] != 1 {
				t.Logf("seed %d: task %d executed %d times", seed, k, rec.count[k])
				return false
			}
			for _, p := range spec.Predecessors(k) {
				if rec.seq[p] > rec.seq[k] {
					t.Logf("seed %d: task %d before pred %d", seed, k, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ChaseLev-backed engine satisfies the same contract.
func TestQuickRandomDAGsChaseLev(t *testing.T) {
	f := func(seed uint64) bool {
		spec, sink, _, rec := randomDAG(seed, 5, 10, 6)
		keys := reachable(spec, sink)
		pol := NabbitCPolicy()
		pol.Deque = DequeChaseLev
		pol.FirstStealMaxRounds = 2
		st, err := Run(spec, sink, Options{Workers: 6, Policy: pol})
		if err != nil || int(st.TotalNodes()) != len(keys) {
			return false
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for _, k := range keys {
			if rec.count[k] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the deque substrates are interchangeable. For any random DAG
// and policy — flat or hierarchical — runs on the mutex and Chase–Lev
// deques compute the same task set (every reachable task exactly once, in
// dependence order) and report identical NodesExecuted totals. Real-engine
// schedules are not reproducible, so computed-sets are what it compares.
func TestQuickCrossSubstrateEquivalence(t *testing.T) {
	backends := []DequeBackend{DequeMutex, DequeChaseLev}
	f := func(seed uint64, workersRaw uint8) bool {
		workers := int(workersRaw)%7 + 2
		var topo numa.Topology
		pol := NabbitCPolicy()
		switch seed % 3 {
		case 0:
			// flat NabbitC
		case 1:
			pol = NabbitPolicy()
		default:
			pol = NabbitCHierPolicy()
			topo = numa.Topology{Workers: workers, CoresPerDomain: 2}
		}
		pol.FirstStealMaxRounds = 2
		pol.Seed = seed + 3

		totals := make([]int64, len(backends))
		for i, backend := range backends {
			spec, sink, _, rec := randomDAG(seed, 5, 10, workers)
			keys := reachable(spec, sink)
			p := pol
			p.Deque = backend
			st, err := Run(spec, sink, Options{Workers: workers, Policy: p, Topology: topo})
			if err != nil {
				t.Logf("seed %d deque=%v: %v", seed, backend, err)
				return false
			}
			if st.DequeBackend != backend.String() {
				t.Logf("seed %d: stats report deque %q, want %q", seed, st.DequeBackend, backend)
				return false
			}
			totals[i] = st.TotalNodes()
			if int(totals[i]) != len(keys) {
				t.Logf("seed %d deque=%v: executed %d, want %d",
					seed, backend, totals[i], len(keys))
				return false
			}
			rec.mu.Lock()
			for _, k := range keys {
				if rec.count[k] != 1 {
					rec.mu.Unlock()
					t.Logf("seed %d deque=%v: task %d executed %d times",
						seed, backend, k, rec.count[k])
					return false
				}
				for _, pk := range spec.Predecessors(k) {
					if rec.seq[pk] > rec.seq[k] {
						rec.mu.Unlock()
						t.Logf("seed %d deque=%v: task %d before pred %d",
							seed, backend, k, pk)
						return false
					}
				}
			}
			rec.mu.Unlock()
			if totals[i] != totals[0] {
				t.Logf("seed %d: substrates computed %d vs %d nodes", seed, totals[0], totals[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The hierarchical engine must complete correctly on a multi-socket
// topology under heavy stealing pressure on both substrates, its tier
// counters must reconcile with the aggregate steal counters, and every
// worker's probes must be whole sweeps of its steal plan — for the flat
// policies too.
func TestHierRealEngineTierAccounting(t *testing.T) {
	topo := numa.Topology{Workers: 8, CoresPerDomain: 2}
	for _, pol := range []Policy{NabbitCHierPolicy(), NabbitCPolicy(), NabbitPolicy()} {
		for _, backend := range []DequeBackend{DequeMutex, DequeChaseLev} {
			rec := newRecorder()
			spec, sink, keys := layeredDAG(10, 40, rec, func(k Key) int { return int(k) % 8 })
			pol.Deque = backend
			st, err := Run(spec, sink, Options{Workers: 8, Policy: pol, Topology: topo})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("hier=%v colored=%v deque=%v", pol.Hierarchical, pol.Colored, backend)
			if int(st.TotalNodes()) != len(keys) {
				t.Fatalf("%s: executed %d, want %d", name, st.TotalNodes(), len(keys))
			}
			at, ts := st.TierAttempts(), st.TierSteals()
			var atSum, tsSum int64
			for tier := StealTier(0); tier < NumStealTiers; tier++ {
				atSum += at[tier]
				tsSum += ts[tier]
				if ts[tier] > at[tier] {
					t.Fatalf("%s tier %v: %d steals exceed %d attempts", name, tier, ts[tier], at[tier])
				}
			}
			if atSum != st.StealAttempts() {
				t.Fatalf("%s: tier attempts %d != StealAttempts %d", name, atSum, st.StealAttempts())
			}
			total, _ := st.SuccessfulSteals()
			if tsSum != total {
				t.Fatalf("%s: tier steals %d != StealsOK %d", name, tsSum, total)
			}
			for wid, ws := range st.Workers {
				if err := checkPlanSweeps(StealPlan(pol, topo, wid), ws, 0); err != nil {
					t.Fatalf("%s worker %d: %v", name, wid, err)
				}
			}
			rec.verify(t, spec, keys)
		}
	}
}

// checkPlanSweeps checks that a worker's tier counters are whole sweeps of
// its plan, where a sweep ends at the plan's end or at a hit: the S sweeps
// that ended in a global-random miss spent every step's budget; a sweep
// that hit spent the budget of each step before the hit's, one to all of
// it at the hit's step, and nothing after. Probes of the enforced first
// steal are taken out first. trailing sweeps may have been cut off with no
// hit (the run ended mid-walk); the engine has none, since a bail or park
// only ever falls between sweeps.
func checkPlanSweeps(plan []StealStep, ws WorkerStats, trailing int64) error {
	at, hits := ws.TierAttempts, ws.TierSteals
	at[TierGlobalColored] -= ws.FirstStealChecks
	if ws.FirstStealForcedOK {
		hits[TierGlobalColored]--
	}
	inPlan := map[StealTier]bool{}
	for _, s := range plan {
		inPlan[s.Tier] = true
	}
	for tier := StealTier(0); tier < NumStealTiers; tier++ {
		if !inPlan[tier] && (at[tier] != 0 || hits[tier] != 0) {
			return fmt.Errorf("tier %v is not in the plan but has %d probes", tier, at[tier])
		}
	}
	sweeps := at[TierGlobalRandom] - hits[TierGlobalRandom]
	var hitsAfter int64
	for i := len(plan) - 1; i >= 0; i-- {
		s := plan[i]
		b := int64(s.Budget)
		base := (sweeps + hitsAfter) * b
		lo, hi := base+hits[s.Tier], base+(hits[s.Tier]+trailing)*b
		if at[s.Tier] < lo || at[s.Tier] > hi {
			return fmt.Errorf("tier %v: %d probes, want %d..%d for %d sweeps, %d hits there and %d after (budget %d)",
				s.Tier, at[s.Tier], lo, hi, sweeps, hits[s.Tier], hitsAfter, b)
		}
		hitsAfter += hits[s.Tier]
	}
	return nil
}

// OnComplete must see every task exactly once, attributed to a valid
// worker.
func TestOnCompleteHook(t *testing.T) {
	rec := newRecorder()
	spec, sink, keys := layeredDAG(6, 20, rec, func(k Key) int { return int(k) % 4 })
	var mu sync.Mutex
	seen := map[Key]int{}
	_, err := Run(spec, sink, Options{
		Workers: 4,
		Policy:  NabbitCPolicy(),
		OnComplete: func(worker int, k Key) {
			if worker < 0 || worker >= 4 {
				t.Errorf("bad worker id %d", worker)
			}
			mu.Lock()
			seen[k]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(keys) {
		t.Fatalf("hook saw %d tasks, want %d", len(seen), len(keys))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("task %d reported %d times", k, c)
		}
	}
}
