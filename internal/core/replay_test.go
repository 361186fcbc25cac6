package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"nabbitc/internal/xrand"
)

// stablePreds draws a DAG over the keys [0, n) with every predecessor slice
// built once, which is what a replay needs of a spec: key k depends on up
// to three earlier keys, now and then on the same one twice, and the sink
// n-1 on a handful more, so most of the universe is reachable from it.
func stablePreds(r *xrand.Rand, n int) [][]Key {
	preds := make([][]Key, n)
	for k := 1; k < n; k++ {
		fan := r.Intn(4)
		if k == n-1 {
			fan = 1 + r.Intn(8)
		}
		for f := 0; f < fan; f++ {
			p := Key(r.Intn(k))
			preds[k] = append(preds[k], p)
			if r.Intn(6) == 0 {
				preds[k] = append(preds[k], p) // a duplicate edge: two join counts, two list entries
			}
		}
	}
	return preds
}

// replayRig is one engine over one stable-slice DAG, with the bookkeeping to
// check a run of it: exactly-once in dependence order over the keys
// reachable from the sink, a constant node count, and whether the run was a
// replay.
type replayRig struct {
	t     *testing.T
	e     *Engine
	inner FuncSpec // the stable-slice spec itself, whatever wrapper the engine got
	sink  Key
	keys  []Key
	rec   *recorder
}

// newReplayRig builds the rig. wrap, when non-nil, is applied to the spec
// before the engine sees it; compute runs inside every task before it is
// recorded.
func newReplayRig(t *testing.T, preds [][]Key, colors []int, opts Options, compute func(Key), wrap func(FuncSpec) Spec) *replayRig {
	t.Helper()
	g := &replayRig{t: t, sink: Key(len(preds) - 1), rec: newRecorder()}
	g.inner = FuncSpec{
		PredsFn: func(k Key) []Key { return preds[k] },
		ColorFn: func(k Key) int { return colors[k] },
		ComputeFn: func(k Key) {
			if compute != nil {
				compute(k)
			}
			g.rec.record(k)
		},
		BoundFn: func() int { return len(preds) },
	}
	g.keys = reachable(g.inner, g.sink)
	var spec Spec = g.inner
	if wrap != nil {
		spec = wrap(g.inner)
	}
	if !opts.Policy.Colored {
		opts.Policy = NabbitCPolicy()
	}
	e, err := NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.e = e
	t.Cleanup(func() { e.Close() })
	return g
}

// check verifies one healthy run's recording and stats, then clears the
// recording for the next.
func (g *replayRig) check(what string, st *Stats, err error, replayed bool) {
	g.t.Helper()
	if err != nil {
		g.t.Fatalf("%s: %v", what, err)
	}
	g.rec.verify(g.t, g.inner, g.keys)
	if st.NodesCreated != len(g.keys) || int(st.TotalNodes()) != len(g.keys) && st.Workers != nil {
		g.t.Fatalf("%s: created %d executed %d, want %d", what, st.NodesCreated, st.TotalNodes(), len(g.keys))
	}
	if st.Replayed != replayed {
		g.t.Fatalf("%s: Replayed = %v, want %v", what, st.Replayed, replayed)
	}
	*g.rec = *newRecorder()
}

// discard throws away the recording of a run that was not checked. A failed
// run's other workers may still be finishing a task, so the pool is let go
// quiet first.
func (g *replayRig) discard() {
	g.e.lockQuiet()
	g.e.stateMu.Unlock()
	*g.rec = *newRecorder()
}

func (g *replayRig) execute(what string, replayed bool) {
	g.t.Helper()
	st, err := g.e.Execute(g.sink)
	g.check(what, st, err, replayed)
}

// countingSpec counts the engine's Predecessors calls.
type countingSpec struct {
	BoundedSpec
	calls *atomic.Int64
}

func (c countingSpec) Predecessors(k Key) []Key {
	c.calls.Add(1)
	return c.BoundedSpec.Predecessors(k)
}

// uniformColors colours n keys round-robin over the workers.
func uniformColors(n, workers int) []int {
	colors := make([]int, n)
	for k := range colors {
		colors[k] = k % workers
	}
	return colors
}

// TestReplayProperty is the replay's property test: random stable-slice
// DAGs of 2-400 keys with duplicate edges and the odd invalid colour, 1-3
// workers, eight Executes per engine with a Compute panic in run 4, every
// other DAG with its bound hidden so its keys are their own slots. Every
// healthy run computes each reachable key exactly once after its
// predecessors and reports the same node count; runs 0 and 5 — the first,
// and the one after the failure — discover the graph, every other healthy
// run replays it.
func TestReplayProperty(t *testing.T) {
	dags := 60
	if testing.Short() {
		dags = 20
	}
	for d := 0; d < dags; d++ {
		r := xrand.New(uint64(d)*7919 + 1)
		n := 2 + r.Intn(399)
		workers := 1 + r.Intn(3)
		preds := stablePreds(r, n)
		colors := make([]int, n)
		for k := range colors {
			colors[k] = r.Intn(workers)
			if r.Intn(10) == 0 {
				colors[k] = -1
			}
		}
		var panicAt atomic.Int64
		panicAt.Store(-1)
		var wrap func(FuncSpec) Spec
		if d%2 == 1 {
			wrap = hideBound
		}
		g := newReplayRig(t, preds, colors, Options{Workers: workers}, func(k Key) {
			if int64(k) == panicAt.Load() {
				panic("injected")
			}
		}, wrap)
		victim := g.keys[r.Intn(len(g.keys))]
		for run := 0; run < 8; run++ {
			what := fmt.Sprintf("dag %d (%d keys, %d workers, unbounded %v) run %d", d, n, workers, wrap != nil, run)
			if run == 4 {
				panicAt.Store(int64(victim))
				st, err := g.e.Execute(g.sink)
				var ce *ComputeError
				if st != nil || !errors.As(err, &ce) || ce.Key != victim {
					t.Fatalf("%s: (%v, %v), want a *ComputeError for key %d", what, st, err, victim)
				}
				panicAt.Store(-1)
				g.discard()
				continue
			}
			g.execute(what, run != 0 && run != 5)
		}
	}
}

// TestReplayWavefront pins that replay engages on the benchmark's own
// shape: on the 256x256 wavefront the first Execute discovers, the next
// three replay, and each leaves the sink value a serial walk computes under
// that run's salt — which a task that ran before a predecessor, twice, or
// not at all would change.
func TestReplayWavefront(t *testing.T) {
	const n = 256
	for _, workers := range []int{1, 2} {
		spec := newWavefrontSpec(n, workers)
		ref := newWavefrontSpec(n, workers)
		e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 4; run++ {
			spec.salt = uint64(run)*0x9e3779b97f4a7c15 + 1
			ref.salt = spec.salt
			for k := 0; k < n*n; k++ {
				ref.Compute(Key(k))
			}
			st, err := e.Execute(spec.sink())
			if err != nil {
				t.Fatalf("%d workers run %d: %v", workers, run, err)
			}
			if st.Replayed != (run > 0) || st.NodesCreated != n*n || st.TotalNodes() != n*n {
				t.Fatalf("%d workers run %d: Replayed %v created %d executed %d, want %v %d %d",
					workers, run, st.Replayed, st.NodesCreated, st.TotalNodes(), run > 0, n*n, n*n)
			}
			if got, want := spec.val[spec.sink()], ref.val[ref.sink()]; got != want {
				t.Fatalf("%d workers run %d: sink value %#x, serial walk %#x", workers, run, got, want)
			}
		}
		e.Close()
	}
}

// TestReplayFallback is the matrix of what must not replay. Every row ends
// in a correct discovery run reporting Replayed == false; where the cause
// is gone afterwards, the run after that replays again, so a guard that
// merely disabled replay for good would show too.
func TestReplayFallback(t *testing.T) {
	const n, workers = 300, 2
	preds := stablePreds(xrand.New(42), n)
	colors := uniformColors(n, workers)
	rig := func(t *testing.T, opts Options, compute func(Key), wrap func(FuncSpec) Spec) *replayRig {
		if opts.Workers == 0 {
			opts.Workers = workers
		}
		return newReplayRig(t, preds, colors, opts, compute, wrap)
	}

	t.Run("sink changed and back", func(t *testing.T) {
		g := rig(t, Options{}, nil, nil)
		other := g.keys[len(g.keys)/2]
		g.execute("first", false)
		g.execute("second", true)
		if _, err := g.e.Execute(other); err != nil {
			t.Fatal(err)
		}
		g.discard()
		// The table gave its pages up when it was asked for another graph,
		// so the first run back discovers. An Execute's table keeps its
		// pages whatever its last sink, so the second run back replays.
		g.execute("back", false)
		g.execute("back, second in a row", true)
		g.execute("back, third in a row", true)
	})

	t.Run("sink switched for good", func(t *testing.T) {
		// A, B, B: the new sink's first run discovers and its second
		// replays, as on an engine that started on B.
		g := rig(t, Options{}, nil, nil)
		g.execute("first", false)
		other := g.keys[len(g.keys)/2]
		g.sink, g.keys = other, reachable(g.inner, other)
		g.execute("new sink", false)
		g.execute("new sink, second in a row", true)
		g.execute("new sink, third in a row", true)
	})

	t.Run("fresh slices", func(t *testing.T) {
		var calls atomic.Int64
		g := rig(t, Options{}, nil, func(s FuncSpec) Spec {
			return countingSpec{newFreshSliceSpec(s), &calls}
		})
		perRun := int64(len(g.keys))
		for run := 0; run < 4; run++ {
			calls.Store(0)
			g.execute(fmt.Sprintf("run %d", run), false)
			// Every run after the first pays for a pass that finds a fresh
			// slice; it stops at the first node with predecessors, so it never
			// asks more than discovery does.
			if got := calls.Load(); run == 0 && got != perRun || run > 0 && (got <= perRun || got > 2*perRun) {
				t.Fatalf("run %d: %d Predecessors calls for %d nodes", run, got, perRun)
			}
		}
	})

	t.Run("fresh slices at the era's last stamp", func(t *testing.T) {
		// A failed pass takes no stamp, so the discovery after it takes the
		// era's last one and keeps the table's pages; the run after that opens
		// a new era, which the kept pages may not cross.
		g := rig(t, Options{}, nil, func(s FuncSpec) Spec { return newFreshSliceSpec(s) })
		g.execute("first", false)
		pool := g.e.pool
		pool.clock.Store((pool.clock.Load()/epochsPerEra+1)*epochsPerEra - 1)
		g.execute("at the era's last stamp", false)
		g.execute("first of the new era", false)
	})

	t.Run("one slice swapped mid-streak", func(t *testing.T) {
		// After two replays the spec starts returning a fresh copy of one
		// interior key's slice, same keys, and keeps returning that copy. The
		// pass finds it and the run discovers, recording the copy; the run
		// after that replays again, with no trip through another sink.
		var swapped atomic.Bool
		swap := Key(-1)
		var fresh []Key
		g := rig(t, Options{}, nil, func(s FuncSpec) Spec {
			inner := s.PredsFn
			s.PredsFn = func(k Key) []Key {
				if k == swap && swapped.Load() {
					return fresh
				}
				return inner(k)
			}
			return s
		})
		for _, k := range g.keys {
			if k != g.sink && len(g.inner.PredsFn(k)) > 0 {
				swap = k
				break
			}
		}
		fresh = slices.Clone(g.inner.PredsFn(swap))
		g.execute("first", false)
		g.execute("second", true)
		g.execute("third", true)
		swapped.Store(true)
		g.execute("swapped", false)
		g.execute("after the swap", true)
		g.execute("second after the swap", true)
	})

	t.Run("failed run before", func(t *testing.T) {
		// A replayed run whose node exhausts its retries fails with a
		// *ComputeError; the run after it discovers, the next replays.
		var broken atomic.Bool
		victim := Key(-1)
		g := rig(t, Options{Retry: RetryPolicy{MaxAttempts: 2}}, nil, func(s FuncSpec) Spec {
			compute := s.ComputeFn
			s.ComputeErrFn = func(k Key) error {
				if k == victim && broken.Load() {
					return errInjectedTest
				}
				compute(k)
				return nil
			}
			return s
		})
		victim = g.inner.PredsFn(g.sink)[0]
		g.execute("first", false)
		g.execute("second", true)
		broken.Store(true)
		st, err := g.e.Execute(g.sink)
		var ce *ComputeError
		if st != nil || !errors.As(err, &ce) || ce.Key != victim || ce.Attempts != 2 {
			t.Fatalf("failing replay = (%+v, %v), want nil Stats and node %d's *ComputeError after 2 attempts", st, err, victim)
		}
		broken.Store(false)
		g.discard()
		g.execute("after the failed run", false)
		g.execute("and the one after", true)
	})

	t.Run("canceled-while-hung run before", func(t *testing.T) {
		gate := make(chan struct{})
		var hang atomic.Bool
		victim := Key(-1)
		g := rig(t, Options{}, func(k Key) {
			if k == victim && hang.Load() {
				<-gate
			}
		}, nil)
		victim = g.inner.PredsFn(g.sink)[0]
		g.execute("first", false)
		g.execute("second", true)
		hang.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if st, err := g.e.ExecuteCtx(ctx, g.sink); st != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("hung replay past its deadline = (%+v, %v), want (nil, ErrCanceled)", st, err)
		}
		hang.Store(false)
		close(gate)
		g.discard() // once the released worker has recorded its task and parked
		g.execute("after the canceled run", false)
		g.execute("and the one after", true)
	})

	t.Run("stalled run before", func(t *testing.T) {
		// While cyclic is set the sink's first predecessor depends on the
		// sink, through a slice of its own; the healthy slices never change.
		var cyclic atomic.Bool
		cyclic.Store(true)
		loop := Key(-1)
		var back []Key
		g := rig(t, Options{}, nil, func(s FuncSpec) Spec {
			inner := s.PredsFn
			s.PredsFn = func(k Key) []Key {
				if k == loop && cyclic.Load() {
					return back
				}
				return inner(k)
			}
			return s
		})
		loop, back = g.inner.PredsFn(g.sink)[0], []Key{g.sink}
		var se *StallError
		if st, err := g.e.Execute(g.sink); st != nil || !errors.As(err, &se) {
			t.Fatalf("cyclic Execute = (%v, %v), want a *StallError", st, err)
		}
		cyclic.Store(false)
		g.discard()
		g.execute("after the stall", false)
		g.execute("and the one after", true)
	})

	t.Run("era wrap", func(t *testing.T) {
		// A replay takes no stamp, so a streak runs on across a wrap of the
		// clock under its table's own era. The table's next discovery takes a
		// stamp of the new era and hands its pages back, as for a changed sink.
		g := rig(t, Options{}, nil, nil)
		g.execute("first", false)
		g.execute("second", true)
		pool := g.e.pool
		wrap := (pool.clock.Load()/epochsPerEra + 1) * epochsPerEra
		pool.clock.Store(wrap)
		g.execute("first of the new era", true)
		g.execute("second of the new era", true)
		if got := pool.clock.Load(); got != wrap {
			t.Fatalf("two replays moved the clock from %d to %d", wrap, got)
		}
		if _, err := g.e.Execute(g.keys[len(g.keys)/2]); err != nil {
			t.Fatal(err)
		}
		g.discard()
		g.execute("back", false)
		g.execute("back, second in a row", true)
		g.execute("back, third in a row", true)
	})

	// Not a fallback: the same spec with its bound hidden, every key its
	// own slot, replays exactly as the indexed one does.
	t.Run("unbounded", func(t *testing.T) {
		g := rig(t, Options{}, nil, hideBound)
		for run := 0; run < 3; run++ {
			g.execute(fmt.Sprintf("run %d", run), run > 0)
		}
	})

	t.Run("submit loop", func(t *testing.T) {
		g := rig(t, Options{}, nil, nil)
		for run := 0; run < 4; run++ {
			tk, err := g.e.Submit(g.sink)
			if err != nil {
				t.Fatal(err)
			}
			st, err := tk.Wait()
			g.check(fmt.Sprintf("submit %d", run), st, err, false)
		}
		// What the Submits left behind is a clean discovery of this sink, and
		// an Execute may replay it.
		g.execute("execute after the submits", true)
		g.execute("and again", true)
	})
}

// TestReplayRetryKeepsStreak runs a retry inside every run of a replay
// streak: one key per run, a different one each time, fails its first
// attempt under Retry{MaxAttempts: 3}. The failed attempt lands on a node
// that reads computed (a replay writes no lifecycle word), so every run
// from the second on must still replay, compute each reachable key exactly
// once after its predecessors, count the one retry, and leave every node of
// the table at the streak's stamp, computed.
func TestReplayRetryKeepsStreak(t *testing.T) {
	const n = 300
	preds := stablePreds(xrand.New(42), n)
	for _, workers := range []int{1, 2, 3} {
		var victim atomic.Int64
		var failed atomic.Bool
		g := newReplayRig(t, preds, uniformColors(n, workers), Options{Workers: workers, Retry: RetryPolicy{MaxAttempts: 3}}, nil,
			func(s FuncSpec) Spec {
				compute := s.ComputeFn
				s.ComputeErrFn = func(k Key) error {
					if int64(k) == victim.Load() && !failed.Swap(true) {
						return errInjectedTest
					}
					compute(k)
					return nil
				}
				return s
			})
		stamp := uint32(0)
		for run := 0; run < 6; run++ {
			what := fmt.Sprintf("%d workers run %d", workers, run)
			victim.Store(int64(g.keys[run*97%len(g.keys)]))
			failed.Store(false)
			st, err := g.e.Execute(g.sink)
			g.check(what, st, err, run > 0)
			if st.Retries != 1 {
				t.Fatalf("%s: Retries = %d, want 1", what, st.Retries)
			}
			got, computed, odd := g.tableWords()
			if run == 0 {
				stamp = got
			} else if got != stamp {
				t.Fatalf("%s: replay under stamp %#x, the streak's is %#x", what, got, stamp)
			}
			if odd != "" {
				t.Fatalf("%s: %s", what, odd)
			}
			if computed != len(g.keys) {
				t.Fatalf("%s: %d nodes carry the stamp, want %d", what, computed, len(g.keys))
			}
		}
	}
}

// tableWords reads the engine's one idle node table once the pool is quiet:
// its stamp, how many nodes carry it, and the first of them whose word is
// anything but stamp|computed ("" if none).
func (g *replayRig) tableWords() (stamp uint32, computed int, odd string) {
	g.e.lockQuiet()
	defer g.e.stateMu.Unlock()
	nt := g.e.tables[0]
	for _, pn := range nt.pages(nil) {
		pg := nt.page(pn)
		for j := range pg {
			v := pg[j].state.Load()
			if v&epochMask != nt.stamp {
				continue
			}
			computed++
			if v != nt.stamp|nodeComputed && odd == "" {
				odd = fmt.Sprintf("key %d left at %#x, want %#x", pg[j].key, v, nt.stamp|nodeComputed)
			}
		}
	}
	return nt.stamp, computed, odd
}
