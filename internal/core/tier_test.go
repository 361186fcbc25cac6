package core

import (
	"slices"
	"sync"
	"testing"

	"nabbitc/internal/colorset"
	"nabbitc/internal/deque"
	"nabbitc/internal/numa"
)

// TestStealPlan checks every worker's plan against the victim order
// Policy.Hierarchical documents — same-color, same-socket colored,
// same-socket random, global colored, global random — with the flat
// protocol as its last two steps: budgets, victim ranges, filters, and
// batching on the global steps only.
func TestStealPlan(t *testing.T) {
	type step struct {
		tier   StealTier
		lo, hi int
		filter []int // nil: any item
		budget int
		batch  int
	}
	topos := []struct {
		name string
		topo numa.Topology
		wids []int
	}{
		{"paper-80", numa.Paper(80), []int{0, 45, 79}},
		{"8x2", numa.Topology{Workers: 8, CoresPerDomain: 2}, []int{0, 3, 7}},
		{"one-socket", numa.Topology{Workers: 8, CoresPerDomain: 8}, []int{0, 5}},
		{"lone-last", numa.Topology{Workers: 7, CoresPerDomain: 3}, []int{2, 6}},
	}
	policies := []struct {
		name string
		pol  Policy
	}{{"nabbit", NabbitPolicy()}, {"nabbitc", NabbitCPolicy()}, {"nabbitc-hier", NabbitCHierPolicy()}}
	for _, tp := range topos {
		nw := tp.topo.Workers
		for _, pp := range policies {
			for _, wid := range tp.wids {
				lo := wid / tp.topo.CoresPerDomain * tp.topo.CoresPerDomain
				hi := min(lo+tp.topo.CoresPerDomain, nw)
				var socket []int
				for c := lo; c < hi; c++ {
					socket = append(socket, c)
				}
				own := []int{wid}
				var want []step
				switch pp.name {
				case "nabbit":
					want = []step{{TierGlobalRandom, 0, nw, nil, 1, 0}}
				case "nabbitc":
					want = []step{
						{TierGlobalColored, 0, nw, own, 4, 0},
						{TierGlobalRandom, 0, nw, nil, 1, 0},
					}
				case "nabbitc-hier":
					if hi-lo > 1 && hi-lo < nw {
						want = []step{
							{TierOwnColor, lo, hi, own, 2, 0},
							{TierSocketColored, lo, hi, socket, 2, 0},
							{TierSocketRandom, lo, hi, nil, 2, 0},
						}
					}
					want = append(want,
						step{TierGlobalColored, 0, nw, own, 4, 8},
						step{TierGlobalRandom, 0, nw, nil, 1, 8})
				}
				var got []step
				for _, s := range StealPlan(pp.pol, tp.topo, wid) {
					g := step{s.Tier, s.Lo, s.Hi, nil, s.Budget, s.Batch}
					if s.Filter != nil {
						if s.Filter.Cap() != nw {
							t.Fatalf("%s/%s/w%d: %v filter has capacity %d, want %d",
								tp.name, pp.name, wid, s.Tier, s.Filter.Cap(), nw)
						}
						g.filter = s.Filter.Colors()
					}
					got = append(got, g)
				}
				if !slices.EqualFunc(got, want, func(a, b step) bool {
					return a.tier == b.tier && a.lo == b.lo && a.hi == b.hi && a.budget == b.budget &&
						a.batch == b.batch && (a.filter == nil) == (b.filter == nil) && slices.Equal(a.filter, b.filter)
				}) {
					t.Fatalf("%s/%s/w%d: plan\n%+v\nwant\n%+v", tp.name, pp.name, wid, got, want)
				}
			}
		}
	}
}

// A probe batches exactly when its step batches and the victim sits in
// another socket: worker 2 of a 2+2 machine takes half of worker 1's six
// items across the socket boundary (one to run, two adopted into its own
// deque), but one item from its socket peer 3, and one from worker 1
// under a step that does not batch. The test goroutine drives the probes
// itself, holding every worker the way a guest holds a borrowed one (park
// CAS won, parked count retired), so no push can wake a worker goroutine
// into the test's items. Adopting is pushing, and a push wakes a parked
// worker: the last step hands worker 0 back to the pool and checks that
// one cross-socket probe woke it — at the wake itself, which only the
// test goroutine can issue while the others are held, and in worker 0's
// Wakes book once the pool is quiet again. Woken, worker 0 waits at
// yieldResumed until the items are drained: still counted as searching,
// it owes the second adoption's wake itself, and it cannot steal the first
// adopted item, run dry and park in time to be woken by the second. The
// items belong to a finished run, so a woken worker that steals them
// discards them unrun.
func TestProbeBatchesCrossSocket(t *testing.T) {
	topo := numa.Topology{Workers: 4, CoresPerDomain: 2}
	e, err := NewEngine(flatFanInSpec(8, 4, nil), Options{Workers: 4, Policy: NabbitCHierPolicy(), Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var (
		mu    sync.Mutex
		woken []int // ids of the workers woken so far
	)
	gate := make(chan struct{})
	resume := sync.OnceFunc(func() { close(gate) })
	defer resume() // before Close, which waits for worker 0
	e.yield = func(p yieldPoint, w *worker) {
		switch {
		case p == yieldWoken:
			mu.Lock()
			woken = append(woken, w.id)
			mu.Unlock()
		case p == yieldResumed && w.id == 0:
			<-gate
		}
	}
	held := make([]bool, len(e.workers))
	for _, w := range e.workers {
		if !w.parkState.CompareAndSwap(1, 0) {
			t.Fatalf("worker %d is not parked", w.id)
		}
		e.parked.Add(-1)
		held[w.id] = true
	}
	handBack := func(ws ...*worker) {
		for _, w := range ws {
			if held[w.id] {
				held[w.id] = false
				w.repark()
			}
		}
	}
	defer handBack(e.workers...) // before Close, which must find them parked
	done := &graphRun{}
	done.state.Store(runDone)
	fill := func(v *worker) {
		for i := 0; i < 6; i++ {
			v.dq.PushBottom(deque.Entry[item]{Value: item{run: done, lo: int32(i)}, Colors: colorset.New(4)})
		}
	}
	drain := func(ws ...*worker) {
		for _, w := range ws {
			for _, ok := w.dq.PopBottom(); ok; _, ok = w.dq.PopBottom() {
			}
		}
	}
	thief := e.workers[2]
	cross := StealStep{Tier: TierGlobalRandom, Lo: 1, Hi: 3, Budget: 1, Batch: 8}
	for _, tc := range []struct {
		name    string
		step    StealStep // the range holds the thief and one victim
		victim  int
		stolen  int
		batched bool
	}{
		{"cross-socket", cross, 1, 3, true},
		{"same-socket", StealStep{Tier: TierGlobalRandom, Lo: 2, Hi: 4, Budget: 1, Batch: 8}, 3, 1, false},
		{"unbatched", StealStep{Tier: TierGlobalRandom, Lo: 1, Hi: 3, Budget: 1}, 1, 1, false},
	} {
		v := e.workers[tc.victim]
		fill(v)
		thief.stats = WorkerStats{}
		it, ok := thief.probe(&tc.step)
		if !ok || it.lo != 0 {
			t.Fatalf("%s: probe = %+v, %v; want the victim's oldest item", tc.name, it, ok)
		}
		if got := 6 - v.dq.Len(); got != tc.stolen {
			t.Fatalf("%s: took %d items, want %d", tc.name, got, tc.stolen)
		}
		if got := thief.dq.Len(); got != tc.stolen-1 {
			t.Fatalf("%s: thief adopted %d items, want %d", tc.name, got, tc.stolen-1)
		}
		if batched := thief.stats.BatchOps == 1 && thief.stats.BatchItems == int64(tc.stolen); batched != tc.batched {
			t.Fatalf("%s: BatchOps %d BatchItems %d, want batched=%v",
				tc.name, thief.stats.BatchOps, thief.stats.BatchItems, tc.batched)
		}
		drain(v, thief)
	}

	w0 := e.workers[0]
	wakes := w0.stats.Wakes
	handBack(w0)
	fill(e.workers[1])
	if _, ok := thief.probe(&cross); !ok {
		t.Fatal("wake step: cross-socket probe stole nothing")
	}
	mu.Lock()
	got := slices.Clone(woken)
	mu.Unlock()
	if !slices.Equal(got, []int{0}) {
		t.Fatalf("adopting a cross-socket batch woke workers %v, want [0]", got)
	}
	drain(e.workers[1], thief)
	resume()
	handBack(e.workers...)
	checkQuiet(t, e)
	if got := w0.stats.Wakes - wakes; got != 1 {
		t.Fatalf("worker 0 counts %d wakes, want 1", got)
	}
}
