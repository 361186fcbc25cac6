package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// flatFanInSpec is a bounded graph shaped like one iteration of an
// iterative workload: n independent block tasks plus a sink (key n)
// depending on all of them. The sink's predecessor slice is built once,
// so the spec allocates nothing per call and a repeat Execute of it
// replays.
func flatFanInSpec(n, workers int, compute func(Key)) FuncSpec {
	ps := make([]Key, n)
	for i := range ps {
		ps[i] = Key(i)
	}
	return FuncSpec{
		PredsFn: func(k Key) []Key {
			if k != Key(n) {
				return nil
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

// freshSliceSpec wraps a bounded spec so that Predecessors never returns
// the slice it returned for that key the call before — to the engine's
// identity check, a spec that builds its slices per call, and so one that
// is never replayed. It alternates between two copies made up front rather
// than allocating, so the benchmark rows that use it to keep a run on the
// discovery path measure discovery and not the allocator. Like the engine,
// it relies on Predecessors being called for one key from one goroutine at
// a time.
type freshSliceSpec struct {
	BoundedSpec
	copies [][2][]Key
	turn   []uint8
}

func newFreshSliceSpec(spec BoundedSpec) *freshSliceSpec {
	f := &freshSliceSpec{BoundedSpec: spec, copies: make([][2][]Key, spec.KeyBound()), turn: make([]uint8, spec.KeyBound())}
	for k := range f.copies {
		ps := spec.Predecessors(Key(k))
		f.copies[k] = [2][]Key{slices.Clone(ps), slices.Clone(ps)}
	}
	return f
}

func (f *freshSliceSpec) Predecessors(k Key) []Key {
	f.turn[k] ^= 1
	return f.copies[k][f.turn[k]]
}

// TestEngineReuse pins the tentpole property: one engine executes many
// runs, each run computing the whole graph exactly once, under both slot
// rules.
func TestEngineReuse(t *testing.T) {
	const n, workers, runs = 256, 8, 10
	for _, row := range tableRows {
		t.Run("mutex/"+row.name, func(t *testing.T) {
			rec := newRecorder()
			spec := row.spec(flatFanInSpec(n, workers, rec.record))
			e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy()})
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
				// The fan-in's slices are stable, so the table replays every
				// run but the first, whichever rule placed its keys.
				if want := r > 0; st.Replayed != want {
					t.Fatalf("run %d: Replayed = %v, want %v", r, st.Replayed, want)
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

// TestRepeatedExecuteDeterminism pins what engine reuse may and may not do
// to scheduling on a single-worker engine (race-free by construction). The
// contract: the completion schedule is a function of the engine's history —
// two engines given the same sequence of Executes produce the same schedule
// run by run — and a first Execute is the schedule a fresh single-use Run
// produces. A repeat Execute replays the graph from its sources rather than
// discovering it from its sink, so on a graph with depth (the wavefront) it
// need not repeat the first run's order; on a fan-in it does, because the
// sources are replayed in slot order, which is the order the sink named
// them in, and that case pins it: every run identical.
func TestRepeatedExecuteDeterminism(t *testing.T) {
	const runs = 5
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
	history := func(spec Spec, sink Key) [][]step {
		e, err := NewEngine(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		seqs := make([][]step, runs)
		for r := range seqs {
			cur = &seqs[r]
			st, err := e.Execute(sink)
			if err != nil {
				t.Fatalf("run %d: %v", r, err)
			}
			if st.Replayed != (r > 0) {
				t.Fatalf("run %d: Replayed = %v", r, st.Replayed)
			}
		}
		return seqs
	}
	same := func(what string, got, want []step) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d completions vs %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s diverges at step %d: %+v vs %+v", what, i, got[i], want[i])
			}
		}
	}
	wf := newWavefrontSpec(24, 1)
	wf.val = nil
	for _, tc := range []struct {
		name      string
		spec      Spec
		sink      Key
		nodes     int
		identical bool // every run repeats the first
	}{
		{"fan-in", flatFanInSpec(128, 1, nil), 128, 129, true},
		{"wavefront", wf, wf.sink(), 24 * 24, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := history(tc.spec, tc.sink), history(tc.spec, tc.sink)
			var fresh []step
			cur = &fresh
			if _, err := Run(tc.spec, tc.sink, opts); err != nil {
				t.Fatal(err)
			}
			if len(fresh) != tc.nodes {
				t.Fatalf("schedule has %d completions, want %d", len(fresh), tc.nodes)
			}
			same("first Execute vs a fresh Run", a[0], fresh)
			for r := range a {
				same(fmt.Sprintf("run %d of two engines with one history", r), b[r], a[r])
				if tc.identical {
					same(fmt.Sprintf("run %d vs the first", r), a[r], a[0])
				}
			}
		})
	}
}

// TestExecuteReuseNoArenaRealloc pins the acceptance criterion: repeated
// Execute calls must not reallocate the node table —
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
	if !st.Replayed {
		t.Fatal("a repeat Execute of the fan-in was not replayed")
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
	if avg > 5 {
		t.Fatalf("%.0f allocs per Execute, want <= 5 steady-state (3 of run bookkeeping)", avg)
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
	t.Run("mutex", func(t *testing.T) {
		e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy()})
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
		a.reset(sink, false)
	}
	reset(a)
	createAll(a, "fresh arena")
	// Drive some nodes to computed so retired slots carry varied phases.
	n, _ := a.getOrCreate(5, 0, nil)
	n.retire()

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
	if nodePhase(n.state.Load()) == nodeComputed {
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
				a.release(via, false)
			}
			pool.clock.Store((era+2)*epochsPerEra - 1)
			reset(b)
			if b.stamp != a.stamp || b.era != era+1 {
				t.Fatalf("wound clock issued stamp %#x era %d, want %#x era %d", b.stamp, b.era, a.stamp, era+1)
			}
			if !releaseFirst {
				a.release(via, false)
			}
			createAll(b, "after the wrap")
			b.release(via, false)
		}
	}
	// An old-era table that is still running after the wrap keeps drawing
	// pages: they must come to it clean too, and go back clean.
	era := pool.clock.Load() / epochsPerEra
	pool.clock.Store((era+1)*epochsPerEra - 1)
	reset(a)
	reset(b) // first stamp of the next era
	createAll(b, "new era")
	b.release(0, false)
	createAll(a, "old era, pages last stamped in the new one")
	a.release(0, false)
	pool.clock.Store((era+1)*epochsPerEra + uint64(a.stamp/epochUnit))
	reset(b)
	if b.stamp != a.stamp {
		t.Fatalf("wound clock issued stamp %#x, want %#x", b.stamp, a.stamp)
	}
	createAll(b, "new era, pages last stamped by the old-era table")
}

// TestNodeMapReset pins the reset contract on a table without key
// records, the one an unbounded spec gets: after a reset for another sink
// nothing is visible, nothing is counted and no page is held, and a key
// is created afresh.
func TestNodeMapReset(t *testing.T) {
	a := testRawArena(FuncSpec{}, 1)
	for k := Key(-50); k < 100; k++ {
		a.getOrCreate(k*1000, 0, nil)
	}
	a.reset(0, false)
	a.release(0, false)
	a.reset(1, false)
	if a.count() != 0 || a.held() != 0 {
		t.Fatalf("after reset: count = %d, %d pages held, want 0 and 0", a.count(), a.held())
	}
	if _, ok := a.get(3000); ok {
		t.Fatal("key 3000 still visible after reset")
	}
	if _, created := a.getOrCreate(3000, 0, nil); !created {
		t.Fatal("create after reset failed")
	}
}
