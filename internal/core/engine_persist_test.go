package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// flatFanInSpec is a bounded graph shaped like one iteration of an
// iterative workload: n independent block tasks plus a sink (key n)
// depending on all of them.
func flatFanInSpec(n, workers int, compute func(Key)) FuncSpec {
	return FuncSpec{
		PredsFn: func(k Key) []Key {
			if k != Key(n) {
				return nil
			}
			ps := make([]Key, n)
			for i := range ps {
				ps[i] = Key(i)
			}
			return ps
		},
		ColorFn: func(k Key) int {
			if k == Key(n) {
				return 0
			}
			return int(k) * workers / n
		},
		ComputeFn: compute,
		BoundFn:   func() int { return n + 1 },
	}
}

// TestEngineReuse pins the tentpole property: one engine executes many
// runs, each run re-exploring the whole graph exactly once, on all three
// deque substrates and both node-table backends.
func TestEngineReuse(t *testing.T) {
	const n, workers, runs = 256, 8, 10
	for _, dq := range []DequeBackend{DequeMutex, DequeChaseLev, DequeBlock} {
		for _, backend := range []NodeTableBackend{NodeTableDense, NodeTableSharded} {
			t.Run(fmt.Sprintf("%v/%v", dq, backend), func(t *testing.T) {
				rec := newRecorder()
				spec := flatFanInSpec(n, workers, rec.record)
				pol := NabbitCPolicy()
				pol.Deque = dq
				e, err := NewEngine(spec, Options{Workers: workers, Policy: pol, NodeTable: backend})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				keys := make([]Key, n+1)
				for i := range keys {
					keys[i] = Key(i)
				}
				for r := 0; r < runs; r++ {
					st, err := e.Execute(Key(n))
					if err != nil {
						t.Fatalf("run %d: %v", r, err)
					}
					if int(st.TotalNodes()) != n+1 || st.NodesCreated != n+1 {
						t.Fatalf("run %d: executed %d created %d, want %d",
							r, st.TotalNodes(), st.NodesCreated, n+1)
					}
					if want := backend; want == NodeTableDense && st.NodeBackend != "dense" ||
						want == NodeTableSharded && st.NodeBackend != "sharded" {
						t.Fatalf("run %d: backend %q", r, st.NodeBackend)
					}
					// Every worker the run woke ends it parked on the quiescence
					// barrier; a worker nobody needed stays asleep.
					if p, w := st.Parks(), st.Wakes(); w < 1 || p != w {
						t.Fatalf("run %d: %d parks for %d wakes, want equal and >= 1 (woken workers must park again)", r, p, w)
					}
					rec.verify(t, spec, keys)
					// Reset the recorder for the next run.
					*rec = *newRecorder()
				}
			})
		}
	}
}

// TestSingleWorkerParksNotSpin is the regression pin for the 1-worker
// hot-spin bug: a single-worker run must park (bounded spin) rather than
// accumulate unbounded SpinRounds through the PopBottom-fail → Gosched
// ping-pong.
func TestSingleWorkerParksNotSpin(t *testing.T) {
	rec := newRecorder()
	spec := flatFanInSpec(64, 1, rec.record)
	e, err := NewEngine(spec, Options{Workers: 1, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for r := 0; r < 3; r++ {
		st, err := e.Execute(64)
		if err != nil {
			t.Fatal(err)
		}
		ws := st.Workers[0]
		if ws.Parks < 1 {
			t.Fatalf("run %d: 1-worker run recorded no parks", r)
		}
		if ws.SpinRounds != 0 {
			t.Fatalf("run %d: 1-worker run spun %d rounds, want 0 (lone workers have no victims)",
				r, ws.SpinRounds)
		}
		if ws.Wakes != 1 {
			t.Fatalf("run %d: wakes = %d, want exactly the Execute wake", r, ws.Wakes)
		}
		*rec = *newRecorder()
	}
}

// TestRepeatedExecuteDeterminism pins that engine reuse does not change
// scheduling: a single-worker engine (race-free by construction) must
// produce the byte-identical completion schedule on every Execute, and
// the same schedule a fresh single-use Run produces.
func TestRepeatedExecuteDeterminism(t *testing.T) {
	const n, runs = 128, 5
	type step struct {
		w int
		k Key
	}
	// OnComplete is fixed at engine construction, so the hook records into
	// a swappable target rather than a per-run closure.
	var mu sync.Mutex
	var cur *[]step
	hook := func(w int, k Key) {
		mu.Lock()
		*cur = append(*cur, step{w, k})
		mu.Unlock()
	}
	opts := Options{Workers: 1, Policy: NabbitCPolicy(), OnComplete: hook}

	spec := flatFanInSpec(n, 1, nil)
	e, err := NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runSeqs := make([][]step, runs+1)
	for r := 0; r < runs; r++ {
		cur = &runSeqs[r]
		if _, err := e.Execute(n); err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}
	// A fresh single-use Run must agree too.
	cur = &runSeqs[runs]
	if _, err := Run(spec, n, opts); err != nil {
		t.Fatal(err)
	}

	base := runSeqs[0]
	if len(base) != n+1 {
		t.Fatalf("schedule has %d completions, want %d", len(base), n+1)
	}
	for r, seq := range runSeqs[1:] {
		if len(seq) != len(base) {
			t.Fatalf("run %d: %d completions vs %d", r+1, len(seq), len(base))
		}
		for i := range seq {
			if seq[i] != base[i] {
				t.Fatalf("run %d diverges at step %d: %+v vs %+v", r+1, i, seq[i], base[i])
			}
		}
	}
}

// TestExecuteReuseNoArenaRealloc pins the acceptance criterion: repeated
// Execute calls on the dense backend must not reallocate the node arena —
// per-run allocations stay a small constant (run bookkeeping), nowhere
// near the per-node costs a rebuild would show.
func TestExecuteReuseNoArenaRealloc(t *testing.T) {
	const n = 512
	spec := flatFanInSpec(n, 1, nil)
	e, err := NewEngine(spec, Options{Workers: 1, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Warm up past first-run effects.
	for r := 0; r < 2; r++ {
		if _, err := e.Execute(n); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.Execute(n)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeBackend != "dense" {
		t.Fatalf("backend %q, want dense", st.NodeBackend)
	}
	if st.Parks() < 1 {
		t.Fatal("idle worker did not park across Execute reuse")
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := e.Execute(n); err != nil {
			t.Fatal(err)
		}
	})
	// A rebuilt arena or node table would cost >= n allocations; run
	// bookkeeping (Stats + per-worker slice + scratch that escapes) is
	// well under this bound.
	if avg >= n {
		t.Fatalf("%.0f allocs per Execute on a %d-node graph: node storage is being rebuilt", avg, n)
	}
	if avg > 32 {
		t.Fatalf("%.0f allocs per Execute, want <= 32 steady-state", avg)
	}
}

// TestEngineCloseSemantics: Close is idempotent, and every front door —
// Execute, ExecuteCtx, Submit, SubmitCtx — fails a closed engine with
// the typed ErrClosed instead of hanging.
func TestEngineCloseSemantics(t *testing.T) {
	spec := flatFanInSpec(16, 2, nil)
	e, err := NewEngine(spec, Options{Workers: 2, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(16); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Execute(16); !errors.Is(err, ErrClosed) {
		t.Fatalf("Execute on a closed engine: err = %v, want ErrClosed", err)
	}
	if _, err := e.ExecuteCtx(context.Background(), 16); !errors.Is(err, ErrClosed) {
		t.Fatalf("ExecuteCtx on a closed engine: err = %v, want ErrClosed", err)
	}
	if _, err := e.Submit(16); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on a closed engine: err = %v, want ErrClosed", err)
	}
	if _, err := e.SubmitCtx(context.Background(), 16); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitCtx on a closed engine: err = %v, want ErrClosed", err)
	}
}

// TestParkWakeStress races the parking protocol against concurrent
// pushes, ready notifications, and run completion: a serial chain forces
// every other worker to park, and periodic fan-out bursts force wakes;
// the whole pool must re-quiesce every run with no lost-wakeup hang.
// Run with -race.
func TestParkWakeStress(t *testing.T) {
	const (
		chain   = 60
		burst   = 16
		workers = 8
	)
	runs := 6
	if testing.Short() {
		runs = 3
	}
	// Key layout: i*100 is chain link i; i*100+j (1 <= j <= burst) is
	// link i's burst task (every 8th link). The sink is the last link.
	link := func(i int) Key { return Key(i * 100) }
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			i, j := int(k)/100, int(k)%100
			if j != 0 {
				return []Key{link(i)} // burst task hangs off its link
			}
			if i == 0 {
				return nil
			}
			ps := []Key{link(i - 1)}
			if (i-1)%8 == 0 {
				for b := 1; b <= burst; b++ {
					ps = append(ps, link(i-1)+Key(b))
				}
			}
			return ps
		},
		ColorFn: func(k Key) int { return int(k) % workers },
		ComputeFn: func(k Key) {
			if int(k)%100 == 0 {
				// Chain links are slow enough that idle workers exhaust
				// their spin budget and park.
				time.Sleep(50 * time.Microsecond)
			}
		},
	}
	for _, dq := range []DequeBackend{DequeMutex, DequeChaseLev, DequeBlock} {
		t.Run(dq.String(), func(t *testing.T) {
			pol := NabbitCPolicy()
			pol.Deque = dq
			e, err := NewEngine(spec, Options{Workers: workers, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for r := 0; r < runs; r++ {
				type result struct {
					st  *Stats
					err error
				}
				ch := make(chan result, 1)
				go func() {
					st, err := e.Execute(link(chain - 1))
					ch <- result{st, err}
				}()
				select {
				case res := <-ch:
					if res.err != nil {
						t.Fatalf("run %d: %v", r, res.err)
					}
					if p, w := res.st.Parks(), res.st.Wakes(); w < 1 || p != w {
						t.Fatalf("run %d: %d parks for %d wakes, want equal and >= 1", r, p, w)
					}
				case <-time.After(60 * time.Second):
					t.Fatalf("run %d: Execute hung — lost wakeup in the park protocol", r)
				}
			}
		})
	}
}

// TestArenaEpochReset unit-tests the stamped reset: retired nodes read as
// absent, counts reset, and slots are recreated cleanly — and because the
// stamp comes from one engine-wide clock and pages move between tables, it
// drives two tables of one pool across the clock's wrap: no slot stamped
// before the wrap may read as created to a table stamped after it, however
// the page got there, and count() stays exact throughout.
func TestArenaEpochReset(t *testing.T) {
	const bound = 4 * pageNodes
	spec, _ := boundedChainSpec(bound, nil)
	a := testArena(spec, 2, bound)
	createAll := func(a *nodeArena, what string) {
		t.Helper()
		for k := Key(0); k < bound; k++ {
			if _, ok := a.get(k); ok {
				t.Fatalf("%s: key %d visible before its creation", what, k)
			}
			if _, created := a.getOrCreate(k, int(k)%2, nil); !created {
				t.Fatalf("%s: key %d not created", what, k)
			}
		}
		if a.count() != bound {
			t.Fatalf("%s: count = %d, want %d", what, a.count(), bound)
		}
	}
	// Every reset below names a sink the table has not just served, and
	// both tables are primed with a first one, so no run keeps its pages
	// (TestArenaKeepsPagesForSameSink covers that).
	sink := Key(0)
	reset := func(a *nodeArena) {
		sink++
		a.reset(sink)
	}
	reset(a)
	createAll(a, "fresh arena")
	// Drive some nodes to computed so retired slots carry varied phases.
	n, _ := a.getOrCreate(5, 0, nil)
	n.markComputed()

	reset(a)
	if a.count() != 0 {
		t.Fatalf("count after reset = %d, want 0", a.count())
	}
	if held := a.held(); held != 0 {
		t.Fatalf("table still holds %d pages after reset", held)
	}
	for k := Key(0); k < bound; k++ {
		if _, ok := a.get(k); ok {
			t.Fatalf("key %d still visible after reset", k)
		}
	}
	n, created := a.getOrCreate(5, 0, nil)
	if !created {
		t.Fatal("key 5 not re-created after reset")
	}
	if n.Computed() {
		t.Fatal("re-created node inherited computed phase from the previous epoch")
	}

	// The wrap. Table a takes the last stamp of era 0 and fills every page
	// with it; table b shares the pool. Then the clock is wound so that b's
	// next checkout gets the very same stamp, one era later. Whichever way
	// a's pages reach b — handed back before b's checkout or after it,
	// through a worker's stack or the shared list — b must find every slot
	// absent.
	pool := a.pool
	b := newNodeArena(a.sv, pool)
	reset(b)
	for _, via := range []int{0, 1, -1} {
		for _, releaseFirst := range []bool{true, false} {
			era := pool.clock.Load() / epochsPerEra
			pool.clock.Store((era+1)*epochsPerEra - 1)
			reset(a)
			if want := uint32(epochsPerEra-1) * epochUnit; a.stamp != want || a.era != era {
				t.Fatalf("last stamp of era %d = %#x in era %d, want %#x", era, a.stamp, a.era, want)
			}
			createAll(a, "before the wrap")
			if releaseFirst {
				a.release(via)
			}
			pool.clock.Store((era+2)*epochsPerEra - 1)
			reset(b)
			if b.stamp != a.stamp || b.era != era+1 {
				t.Fatalf("wound clock issued stamp %#x era %d, want %#x era %d", b.stamp, b.era, a.stamp, era+1)
			}
			if !releaseFirst {
				a.release(via)
			}
			createAll(b, "after the wrap")
			b.release(via)
		}
	}
	// An old-era table that is still running after the wrap keeps drawing
	// pages: they must come to it clean too, and go back clean.
	era := pool.clock.Load() / epochsPerEra
	pool.clock.Store((era+1)*epochsPerEra - 1)
	reset(a)
	reset(b) // first stamp of the next era
	createAll(b, "new era")
	b.release(0)
	createAll(a, "old era, pages last stamped in the new one")
	a.release(0)
	pool.clock.Store((era+1)*epochsPerEra + uint64(a.stamp/epochUnit))
	reset(b)
	if b.stamp != a.stamp {
		t.Fatalf("wound clock issued stamp %#x, want %#x", b.stamp, a.stamp)
	}
	createAll(b, "new era, pages last stamped by the old-era table")
}

// TestNodeMapReset mirrors the arena reset contract for the sharded map.
func TestNodeMapReset(t *testing.T) {
	nm := newNodeMap(testView(FuncSpec{}, 1))
	for k := Key(0); k < 100; k++ {
		nm.getOrCreate(k, 0, nil)
	}
	nm.reset(0)
	if nm.count() != 0 {
		t.Fatalf("count after reset = %d, want 0", nm.count())
	}
	if _, ok := nm.get(3); ok {
		t.Fatal("key 3 still visible after reset")
	}
	if _, created := nm.getOrCreate(3, 0, nil); !created {
		t.Fatal("create after reset failed")
	}
}
