package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file tests lazy publication (see runGroup): a worker keeps the rest
// of a one-colour range to itself while a push would help nobody, and
// publishes it as soon as another worker is hungry.

// TestLazyPublicationOneWorker runs a one-colour cone of 16 leaves on one
// worker. Eager splitting pushes 15 halves; a lone worker with work on its
// deque is never hungry, so it publishes only the upper half of each range
// it pops into an empty deque — [8,16), [12,16), [14,16), [15,16) — and
// runs the rest in order. The completion order stays eager splitting's:
// the leaves left to right, then the sink.
func TestLazyPublicationOneWorker(t *testing.T) {
	const width = 16
	var order []Key
	spec := coneSpec(1, width, 1, nil)
	e, err := NewEngine(spec, Options{
		Workers: 1, Policy: NabbitCPolicy(),
		OnComplete: func(_ int, k Key) { order = append(order, k) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, e)
	for run := 0; run < 2; run++ {
		order = order[:0]
		st, err := e.Execute(coneSink(0, width))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Key, width+1)
		for i := range want {
			want[i] = Key(i)
		}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("run %d: completion order %v, want %v", run, order, want)
		}
		if p := st.Workers[0].Pushes; p != 4 {
			t.Errorf("run %d: %d pushes, want 4 (eager splitting makes 15)", run, p)
		}
	}
}

// TestHungryWorkerGetsHeldRange stages the case lazy publication must not
// get wrong: a worker holds a flat one-colour range and has other work on
// its deque, so it runs the range's leaves without publishing them, and
// then the other worker becomes hungry. At the next leaf boundary the
// holder must publish the rest of the range, and the hungry worker must
// get to execute a leaf of it.
//
// The graph is one sink over 16 leaves of colour 0 and one task M of
// colour 1. Its waiter borrows worker 0 while the deferred wake holds
// worker 1 asleep: the sink's spawn leaves M on the deque and worker 0
// holds the leaves. Leaf 0 lets the deferred wake come due, which wakes
// worker 1 for M, and holds worker 1 searching — hungry — before it looks
// for work. At leaf 0's boundary worker 0 must therefore publish even
// though its deque is not empty. Leaf 1, the next one worker 0 runs,
// releases worker 1 and waits for a leaf to start on another goroutine:
// had worker 0 kept the range, worker 1 would find only M, and leaf 1
// would wait in vain.
func TestHungryWorkerGetsHeldRange(t *testing.T) {
	const width = 16
	const m, sink = Key(width), Key(width + 1)
	var waiter atomic.Int64
	var elsewhere atomic.Bool
	var completedBy [width + 2]atomic.Int32
	held := make(chan struct{})
	release := make(chan struct{})
	var e *Engine
	var releaseTimer func()
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			if k != sink {
				return nil
			}
			ps := make([]Key, width+1)
			for i := range ps {
				ps[i] = Key(i)
			}
			return ps
		},
		ColorFn: func(k Key) int {
			if k == m {
				return 1
			}
			return 0
		},
		ComputeFn: func(k Key) {
			if k >= width {
				return
			}
			if goid() != waiter.Load() {
				elsewhere.Store(true)
				return
			}
			switch k {
			case 0:
				releaseTimer()
				<-held
				if !hungry(e) {
					t.Error("worker 1 is held after its wake, but nobody is hungry")
				}
			case 1:
				close(release)
				deadline := time.Now().Add(10 * time.Second)
				for !elsewhere.Load() {
					if time.Now().After(deadline) {
						t.Error("no leaf of the held range started on another worker: the range was not published to the hungry worker")
						return
					}
					runtime.Gosched()
				}
			}
		},
		BoundFn: func() int { return width + 2 },
	}
	e = waitEngine(t, spec, Options{
		Workers: 2,
		OnComplete: func(w int, k Key) {
			completedBy[k].Store(int32(w) + 1)
		},
	})
	var once sync.Once
	releaseTimer = holdTimer(e, func(p yieldPoint, w *worker) {
		if p == yieldResumed && w.id == 1 {
			once.Do(func() {
				close(held)
				<-release
			})
		}
	})
	defer mustClose(t, e)
	defer releaseTimer()

	waiter.Store(goid())
	tk, err := e.Submit(sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{0, 1} {
		if w := completedBy[k].Load() - 1; w != 0 {
			t.Errorf("leaf %d completed on worker %d, want the waiter's worker 0", k, w)
		}
	}
	other := 0
	for k := 0; k < width; k++ {
		if completedBy[k].Load()-1 == 1 {
			other++
		}
	}
	if other == 0 {
		t.Error("worker 1 completed no leaf of the range")
	}
	checkQuiet(t, e)
}

// hungry reads the engine's hunger test as runGroup's mayHold does: a
// worker is searching, or one is parked with no deferred wake armed.
func hungry(e *Engine) bool {
	return e.searching.Load() > 0 || e.parked.Load() > 0 && e.deferUntil.Load() == 0
}

// deferralCounters sums the workers' cumulative push, park and wake counts.
// Submit mode never resets them; read them in the quiet state.
func deferralCounters(e *Engine) (pushes, parks, wakes int64) {
	for _, w := range e.workers {
		pushes += w.stats.Pushes
		parks += w.stats.Parks
		wakes += w.stats.Wakes
	}
	return
}

// TestHoldUnderDeferral submits two-colour cones of 16 leaves, one at a
// time, to an idle engine of two workers and waits for each at once. The
// deferred wake (its timer held) keeps the other worker asleep, so the
// waiter runs each graph on a borrowed worker: it pushes the other colour
// group (KeepHalf stays eager) and holds both one-colour ranges, although
// its deque is empty when it runs the second — nobody can steal from it
// until the deferral is retired. One push per graph, and nobody parks or
// wakes; publishing into the empty deque made four.
func TestHoldUnderDeferral(t *testing.T) {
	const graphs, width = 8, 16
	spec := coneSpec(graphs, width, 2, func(Key) {})
	e := waitEngine(t, spec, Options{Workers: 2})
	defer mustClose(t, e)
	defer holdTimer(e, nil)()
	checkQuiet(t, e)
	for g := 0; g < graphs; g++ {
		pushes, parks, wakes := deferralCounters(e)
		tk, err := e.Submit(coneSink(g, width))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := tk.Wait(); err != nil || st.NodesCreated != width+1 {
			t.Fatalf("graph %d: stats %+v, err %v", g, st, err)
		}
		checkQuiet(t, e)
		p, k, w := deferralCounters(e)
		if p-pushes != 1 || k-parks != 0 || w-wakes != 0 {
			t.Errorf("graph %d: %d pushes, %d parks, %d wakes; want 1 (the colour group), 0, 0",
				g, p-pushes, k-parks, w-wakes)
		}
	}
}

// TestDeferralHungerPublishes retires the deferral in the middle of a held
// range. A one-colour cone of 16 leaves is submitted to an idle engine of
// two workers and waited on, so the waiter's worker 0 holds the leaves
// while the deferred wake (its timer held) keeps worker 1 asleep, and its
// deque is empty. Leaf 2 calls the ticket's Done, which retires the
// deferral: nothing is on a deque, so nobody is woken yet. Leaf 3 then
// waits, on the waiter, until worker 1 has completed a key. That happens
// only if worker 0 published the rest of the range at the boundary after
// leaf 2 — the push wakes worker 1, which steals the upper half; a worker 0
// that kept holding would wait in leaf 3 for good. Every task runs once.
func TestDeferralHungerPublishes(t *testing.T) {
	const width = 16
	sink := coneSink(0, width)
	var waiter atomic.Int64
	var worker1 atomic.Bool
	var computed [width + 1]atomic.Int32
	var tk *Ticket
	spec := coneSpec(1, width, 1, func(k Key) {
		computed[k].Add(1)
		if goid() != waiter.Load() {
			return
		}
		switch k {
		case 2:
			tk.Done()
		case 3:
			deadline := time.Now().Add(10 * time.Second)
			for !worker1.Load() {
				if time.Now().After(deadline) {
					t.Error("worker 1 completed nothing: the held range was not published when the deferral was retired")
					return
				}
				runtime.Gosched()
			}
		}
	})
	e := waitEngine(t, spec, Options{
		Workers: 2,
		OnComplete: func(w int, k Key) {
			if w == 1 {
				worker1.Store(true)
			}
		},
	})
	defer mustClose(t, e)
	defer holdTimer(e, nil)()
	waiter.Store(goid())
	var err error
	if tk, err = e.Submit(sink); err != nil {
		t.Fatal(err)
	}
	if st, err := tk.Wait(); err != nil || st.NodesCreated != width+1 {
		t.Fatalf("stats %+v, err %v", st, err)
	}
	for k := range computed {
		if c := computed[k].Load(); c != 1 {
			t.Errorf("key %d computed %d times, want 1", k, c)
		}
	}
	checkQuiet(t, e)
}

// TestTimerSetOncePerFiring runs 10 000 Submit→Wait round trips on an idle
// engine with the deferral's timer held: its first firing never gets past
// the hook, so it stays pending, and every admission after the first finds
// it so and leaves the timer alone — the firing reads whatever deadline is
// current when it runs. Resetting the timer per admission set it 10 000
// times.
func TestTimerSetOncePerFiring(t *testing.T) {
	const rounds, width = 10000, 4
	spec := coneSpec(1, width, 2, func(Key) {})
	e := waitEngine(t, spec, Options{Workers: 2})
	defer mustClose(t, e)
	var sets atomic.Int32
	defer holdTimer(e, func(p yieldPoint, _ *worker) {
		if p == yieldSetTimer {
			sets.Add(1)
		}
	})()
	for i := 0; i < rounds; i++ {
		tk, err := e.Submit(coneSink(0, width))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if n := sets.Load(); n > 1 {
		t.Fatalf("%d round trips set the timer %d times, want at most 1", rounds, n)
	}
	checkQuiet(t, e)
}

// TestPredecessorsPanicPoisonsSlot stages a panic inside the Predecessors
// call of a node another worker is waiting for. The sink has two
// predecessors of different colours, so each worker creates one, and both
// of those name key k. Whichever worker claims k first panics inside
// Predecessors(k), but only once the other is spinning on k's slot (the
// arena's spin hook). The claimed slot must be published poisoned at the
// panicking worker's rescue boundary, or the spinner never returns and the
// engine never goes quiet again: the run fails with a *ComputeError on k,
// and the next run of the same graph completes.
func TestPredecessorsPanicPoisonsSlot(t *testing.T) {
	const k, a, b, sink = Key(0), Key(1), Key(2), Key(3)
	var panicked atomic.Bool
	spinning := make(chan struct{})
	var spinOnce sync.Once
	spec := FuncSpec{
		PredsFn: func(key Key) []Key {
			switch key {
			case sink:
				return []Key{a, b}
			case a, b:
				return []Key{k}
			}
			if panicked.CompareAndSwap(false, true) {
				select {
				case <-spinning:
				case <-time.After(10 * time.Second):
					t.Error("no worker spun on the slot being created")
				}
				panic("boom")
			}
			return nil
		},
		ColorFn:   func(key Key) int { return int(key) % 2 },
		ComputeFn: func(Key) {},
		BoundFn:   func() int { return 4 },
	}
	e := waitEngine(t, spec, Options{Workers: 2})
	defer mustClose(t, e)
	e.sv.spinning = func(key Key) {
		if key == k {
			spinOnce.Do(func() { close(spinning) })
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := e.Execute(sink)
		var ce *ComputeError
		if !errors.As(err, &ce) || ce.Key != k || ce.Value != "boom" {
			t.Errorf("first run: err %v, want a *ComputeError on key %d", err, k)
		}
		st, err := e.Execute(sink)
		if err != nil || st.NodesCreated != 4 {
			t.Errorf("second run: stats %+v, err %v", st, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hung: the worker spinning on the panicked slot never returned")
	}
	checkQuiet(t, e)
}
