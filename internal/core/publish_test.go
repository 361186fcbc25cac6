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

// TestWatchdogDegradesInsideRange stages a hung leaf inside a range that
// lazy publication would hold. Graph A's one task keeps one worker busy in
// its Compute, so nobody is searching or parked. The other worker runs
// graph B, a sink over 16 leaves of one colour: it publishes [8,16) into
// its empty deque and would then hold [0,8), were the watchdog not on.
// Leaf 0 is optional and hangs until the test ends; the watchdog degrades
// it, and B's sink still needs leaves 1..7. Once A's worker is free it
// must find them on the deque — held, they would sit in the stuck
// worker's locals and B would never complete.
func TestWatchdogDegradesInsideRange(t *testing.T) {
	const width = 16
	const sinkB, a = Key(width), Key(width + 1)
	aEntered := make(chan struct{})
	busy := make(chan struct{})
	leafEntered := make(chan struct{})
	gate := make(chan struct{})
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			if k != sinkB {
				return nil
			}
			ps := make([]Key, width)
			for i := range ps {
				ps[i] = Key(i)
			}
			return ps
		},
		ColorFn: func(Key) int { return 0 },
		ComputeFn: func(k Key) {
			switch k {
			case a:
				close(aEntered)
				<-busy
			case 0:
				close(leafEntered)
				<-gate
			}
		},
		OptionalFn: func(k Key) bool { return k == 0 },
		BoundFn:    func() int { return width + 2 },
	}
	e := waitEngine(t, spec, Options{
		Workers: 2, NodeTimeout: 40 * time.Millisecond, ErrorBudget: 1,
	})
	defer mustClose(t, e)
	defer close(gate) // LIFO: free the stuck worker before Close drains

	tkA, err := e.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	<-aEntered
	tkB, err := e.Submit(sinkB)
	if err != nil {
		t.Fatal(err)
	}
	<-leafEntered
	close(busy)
	// A may itself have overrun NodeTimeout while it kept its worker busy;
	// either outcome leaves that worker free.
	tkA.Wait()

	type result struct {
		st  *Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := tkB.Wait()
		done <- result{st, err}
	}()
	select {
	case res := <-done:
		var pe *PartialError
		if res.st == nil || !errors.As(res.err, &pe) {
			t.Fatalf("Wait = (%v, %v), want Stats + *PartialError", res.st, res.err)
		}
		if len(pe.Failed) != 1 || pe.Failed[0] != 0 {
			t.Errorf("Failed = %v, want [0]", pe.Failed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the degraded run did not complete: the leaves after the hung one are not on a deque")
	}
}

// hungry reads the engine's hunger test as runGroup's mayHold does: a
// worker is searching, or one is parked with no deferred wake armed.
func hungry(e *Engine) bool {
	return e.searching.Load() > 0 || e.parked.Load() > 0 && e.deferUntil.Load() == 0
}
