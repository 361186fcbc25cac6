package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file tests the caller-run Wait protocol (see doc.go's parking note):
// a goroutine in Ticket.Wait borrows a parked worker, runs its loop and
// hands it back. The interleavings are driven through Engine.yield, which
// the engine calls at the protocol's hand-over points, never through
// sleeps, and every test runs at GOMAXPROCS 1, 2 and 4.

// atProcs runs f under GOMAXPROCS 1, 2 and 4.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs-%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t)
		})
	}
}

// goid returns the calling goroutine's id, so a Compute can tell whether it
// runs on the goroutine that called Wait.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, _ := strconv.ParseInt(strings.Fields(string(buf[:n]))[1], 10, 64)
	return id
}

// waitEngine builds an engine over spec and fails the test on error.
func waitEngine(t *testing.T, spec Spec, opts Options) *Engine {
	t.Helper()
	if opts.Policy == (Policy{}) {
		opts.Policy = NabbitCPolicy()
	}
	e, err := NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkQuiet waits for the engine's quiet state and checks the park
// protocol's books there: every worker parked on an empty notify slot with
// no guest, and no searching count outstanding.
func checkQuiet(t *testing.T, e *Engine) {
	t.Helper()
	e.lockQuiet()
	defer e.stateMu.Unlock()
	if s := e.searching.Load(); s != 0 {
		t.Errorf("quiet engine: searching = %d, want 0", s)
	}
	if p := e.parked.Load(); int(p) != len(e.workers) {
		t.Errorf("quiet engine: parked = %d, want %d", p, len(e.workers))
	}
	for _, w := range e.workers {
		if w.parkState.Load() != 1 || len(w.parkCh) != 0 || w.guest != nil || w.parkDue || w.searching {
			t.Errorf("quiet engine: worker %d: parkState %d, %d tokens, guest %v, parkDue %v, searching %v",
				w.id, w.parkState.Load(), len(w.parkCh), w.guest != nil, w.parkDue, w.searching)
		}
	}
}

// holdTimer installs hook as the engine's yield hook and makes the deferred
// wake's timer callback wait until release is called, so that a test which
// needs a graph to stay with its waiter is not at the mercy of how long the
// scheduler takes to get from Submit to Wait. Call it while every worker is
// parked, and release before closing the engine.
func holdTimer(e *Engine, hook func(yieldPoint, *worker)) (release func()) {
	gate := make(chan struct{})
	e.yield = func(p yieldPoint, w *worker) {
		if p == yieldTimer {
			<-gate
		} else if hook != nil {
			hook(p, w)
		}
	}
	return sync.OnceFunc(func() { close(gate) })
}

// mustClose closes the engine, failing the test if a worker goroutine is
// stranded (Close waits for every one of them to exit).
func mustClose(t *testing.T, e *Engine) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung: a worker goroutine is stranded")
	}
}

// waitFor yields until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestWaitRunsOnCaller pins the tentpole: a graph submitted to an idle
// engine and waited on at once runs entirely on the waiting goroutine,
// under a worker's id, without waking anybody.
func TestWaitRunsOnCaller(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 16
		var foreign, ran atomic.Int32
		var waiter atomic.Int64
		spec := coneSpec(4, width, 1, func(Key) {
			ran.Add(1)
			if goid() != waiter.Load() {
				foreign.Add(1)
			}
		})
		e := waitEngine(t, spec, Options{Workers: 1})
		defer mustClose(t, e)
		defer holdTimer(e, nil)()
		waiter.Store(goid())
		for g := 0; g < 4; g++ {
			tk, err := e.Submit(coneSink(g, width))
			if err != nil {
				t.Fatal(err)
			}
			st, err := tk.Wait()
			if err != nil || st.NodesCreated != width+1 {
				t.Fatalf("graph %d: stats %+v, err %v", g, st, err)
			}
		}
		if ran.Load() != 4*(width+1) || foreign.Load() != 0 {
			t.Fatalf("%d tasks ran, %d of them off the waiting goroutine; want %d and 0",
				ran.Load(), foreign.Load(), 4*(width+1))
		}
		checkQuiet(t, e)
		if w := e.workers[0].stats.Wakes; w != 0 {
			t.Fatalf("worker was woken %d times for graphs their waiter ran", w)
		}
	})
}

// TestBorrowVsWake races a guest and a waker for one parked worker, in both
// orders: the park CAS picks exactly one, so exactly one of token and
// tenancy exists, and the parked count is exact in between.
func TestBorrowVsWake(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 8
		spec := coneSpec(4, width, 1, func(Key) {})

		t.Run("waker-first", func(t *testing.T) {
			e := waitEngine(t, spec, Options{Workers: 1})
			defer mustClose(t, e)
			var tk *Ticket
			var hooked atomic.Int32
			defer holdTimer(e, func(p yieldPoint, w *worker) {
				if p != yieldWoken || hooked.Add(1) != 1 {
					return
				}
				// The waker holds the worker and has not sent its token: a
				// guest must find nobody to borrow.
				if got := e.borrow(tk.r); got != nil {
					t.Errorf("borrowed worker %d out from under its waker", got.id)
				}
				if p, n := e.parked.Load(), len(w.parkCh); p != 0 || n != 0 {
					t.Errorf("between wake CAS and token: parked %d, %d tokens; want 0, 0", p, n)
				}
			})()
			tk, err := e.Submit(coneSink(0, width)) // idle engine: the wake is deferred
			if err != nil {
				t.Fatal(err)
			}
			<-tk.Done() // issues the deferred wake, on this goroutine
			if hooked.Load() == 0 {
				t.Fatal("no wake was issued")
			}
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			checkQuiet(t, e)
			if w := e.workers[0].stats.Wakes; w != 1 {
				t.Fatalf("worker consumed %d tokens, want exactly 1", w)
			}
		})

		t.Run("guest-first", func(t *testing.T) {
			e := waitEngine(t, spec, Options{Workers: 1})
			defer mustClose(t, e)
			var hooked atomic.Int32
			defer holdTimer(e, func(p yieldPoint, w *worker) {
				if p != yieldBorrowed || hooked.Add(1) != 1 {
					return
				}
				// The guest holds the worker: a waker must lose the CAS and
				// send nothing.
				if w.wake() {
					t.Error("waker took a worker a guest had already borrowed")
				}
				e.wakeOne()
				e.wakeAll()
				if p, n := e.parked.Load(), len(w.parkCh); p != 0 || n != 0 {
					t.Errorf("during tenancy: parked %d, %d tokens; want 0, 0", p, n)
				}
			})()
			tk, err := e.Submit(coneSink(1, width))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			if hooked.Load() != 1 {
				t.Fatalf("Wait borrowed %d times, want 1", hooked.Load())
			}
			checkQuiet(t, e)
			if w := e.workers[0].stats.Wakes; w != 0 {
				t.Fatalf("sleeping goroutine consumed %d tokens, want 0", w)
			}
		})
	})
}

// TestHandBackRaces drives the hand-back against wakeAll and against Close
// at each point they can meet it. No order may strand the worker's
// goroutine: the engine must go quiet with every notify slot empty, and
// Close must return.
func TestHandBackRaces(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 8
		spec := coneSpec(8, width, 1, func(Key) {})
		runOne := func(t *testing.T, e *Engine, g int) {
			t.Helper()
			tk, err := e.Submit(coneSink(g, width))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}

		// A waker lands between the hand-back's announcement and its
		// re-check: it, not the guest, sends the one token.
		t.Run("wakeAll-after-announce", func(t *testing.T) {
			e := waitEngine(t, spec, Options{Workers: 1})
			defer mustClose(t, e)
			me := goid()
			var hooked atomic.Int32
			defer holdTimer(e, func(p yieldPoint, w *worker) {
				if p == yieldAnnounced && goid() == me && hooked.Add(1) == 1 {
					e.wakeAll()
				}
			})()
			runOne(t, e, 0)
			if hooked.Load() == 0 {
				t.Fatal("the hand-back never announced")
			}
			checkQuiet(t, e)
			if w := e.workers[0].stats.Wakes; w != 1 {
				t.Fatalf("sleeping goroutine consumed %d tokens, want the waker's 1", w)
			}
			runOne(t, e, 1)
			checkQuiet(t, e)
		})

		// Close arrives between the announcement and the re-check and wins
		// the worker; the guest's own wake must then lose quietly.
		t.Run("close-after-announce", func(t *testing.T) {
			e := waitEngine(t, spec, Options{Workers: 1})
			me := goid()
			closed := make(chan error, 1)
			var hooked atomic.Int32
			defer holdTimer(e, func(p yieldPoint, w *worker) {
				if p == yieldAnnounced && goid() == me && hooked.Add(1) == 1 {
					go func() { closed <- e.Close() }()
					waitFor(t, "Close to take the announced worker", func() bool {
						return e.closeFlag.Load() && w.parkState.Load() == 0
					})
				}
			})()
			runOne(t, e, 0)
			if hooked.Load() == 0 {
				t.Fatal("the hand-back never announced")
			}
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close hung: the handed-back worker is stranded")
			}
		})

		// Close sweeps past while a guest still holds a worker (its wakeAll
		// finds that one not parked): a second waiter wins a worker's CAS for
		// a run that completes before it can look, so it parks the worker
		// again untouched — and that announcement's re-check, seeing the
		// engine closing, wakes the goroutine itself.
		t.Run("close-before-announce", func(t *testing.T) {
			leafStarted, releaseLeaf := make(chan struct{}), make(chan struct{})
			var first atomic.Bool
			spec := coneSpec(1, width, 1, func(Key) {
				if first.CompareAndSwap(false, true) {
					close(leafStarted)
					<-releaseLeaf
				}
			})
			e := waitEngine(t, spec, Options{Workers: 2})
			me := goid()
			closed := make(chan error, 1)
			var tk *Ticket
			var hooked atomic.Int32
			release := holdTimer(e, func(p yieldPoint, w *worker) {
				if p == yieldBorrowed && goid() == me && hooked.Add(1) == 1 {
					close(releaseLeaf)
					<-e.doneChan(tk.r)
					go func() { closed <- e.Close() }()
					waitFor(t, "Close to raise its flag", e.closeFlag.Load)
				}
			})
			defer release()
			var err error
			if tk, err = e.Submit(coneSink(0, width)); err != nil {
				t.Fatal(err)
			}
			other := make(chan error, 1)
			go func() { _, err := tk.Wait(); other <- err }()
			<-leafStarted // the other waiter is a guest, inside the first leaf
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := <-other; err != nil {
				t.Fatal(err)
			}
			if hooked.Load() != 1 {
				t.Fatalf("second waiter borrowed %d times, want 1", hooked.Load())
			}
			release()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close hung: the re-parked worker is stranded")
			}
		})
	})
}

// TestWaitStallError: a cyclic graph awaited through Wait still fails with
// a *StallError — the guest's hand-back is a park announcement, so it is a
// stall-sweep site like any other.
func TestWaitStallError(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, workers := range []int{1, 2} {
			spec := FuncSpec{
				PredsFn: func(k Key) []Key {
					switch k {
					case 0:
						return []Key{1}
					case 1:
						return []Key{2}
					default:
						return []Key{1} // 1 <-> 2
					}
				},
				ColorFn:   func(k Key) int { return int(k) % workers },
				ComputeFn: func(Key) {},
				BoundFn:   func() int { return 3 },
			}
			e := waitEngine(t, spec, Options{Workers: workers})
			tk, err := e.Submit(0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = tk.Wait()
			var se *StallError
			if !errors.As(err, &se) || se.Sink != 0 {
				t.Fatalf("workers=%d: Wait = %v, want *StallError for sink 0", workers, err)
			}
			checkQuiet(t, e)
			mustClose(t, e)
		}
	})
}

// TestWaitComputePanic: a Compute that panics on the borrowing goroutine is
// recovered at the item boundary like on any worker — Wait returns a
// *ComputeError, the caller's goroutine survives, the worker is handed back
// and the engine runs the next graph.
func TestWaitComputePanic(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 8
		var panicked atomic.Int64
		bad := coneSink(0, width) - 3
		spec := coneSpec(2, width, 1, func(k Key) {
			if k == bad {
				panicked.Store(goid())
				panic("boom")
			}
		})
		e := waitEngine(t, spec, Options{Workers: 1})
		defer mustClose(t, e)
		defer holdTimer(e, nil)()
		tk, err := e.Submit(coneSink(0, width))
		if err != nil {
			t.Fatal(err)
		}
		_, err = tk.Wait()
		var ce *ComputeError
		if !errors.As(err, &ce) || ce.Key != bad || ce.Value != "boom" {
			t.Fatalf("Wait = %v, want *ComputeError for key %d", err, bad)
		}
		if panicked.Load() != goid() {
			t.Fatal("the panic was not raised on the waiting goroutine; the test did not exercise the guest")
		}
		checkQuiet(t, e)
		tk, err = e.Submit(coneSink(1, width))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := tk.Wait(); err != nil || st.NodesCreated != width+1 {
			t.Fatalf("graph after the panic: stats %+v, err %v", st, err)
		}
		checkQuiet(t, e)
	})
}

// TestCancelWhileWaiterComputes: Cancel from another goroutine while the
// waiter is inside a Compute takes effect at the waiter's next task
// boundary — the task in flight finishes, no further one starts, and Wait
// returns ErrCanceled.
func TestCancelWhileWaiterComputes(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 16
		started, canceled := make(chan struct{}), make(chan struct{})
		var ran atomic.Int32
		spec := coneSpec(1, width, 1, func(Key) {
			if ran.Add(1) == 1 {
				close(started)
				<-canceled
			}
		})
		e := waitEngine(t, spec, Options{Workers: 1})
		defer mustClose(t, e)
		tk, err := e.Submit(coneSink(0, width))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			<-started
			if !tk.Cancel() {
				t.Error("Cancel lost to a run that cannot have finished")
			}
			close(canceled)
		}()
		if _, err := tk.Wait(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("Wait = %v, want ErrCanceled", err)
		}
		if n := ran.Load(); n != 1 {
			t.Fatalf("%d tasks ran, want only the one in flight at Cancel", n)
		}
		checkQuiet(t, e)
	})
}

// TestTwoWaitersOneTicket: two goroutines waiting one Ticket may both
// borrow workers; both return the run's one result and every task runs
// exactly once.
func TestTwoWaitersOneTicket(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const graphs, width = 16, 32
		counts := make([]atomic.Int32, graphs*(width+1))
		spec := coneSpec(graphs, width, 2, func(k Key) { counts[k].Add(1) })
		e := waitEngine(t, spec, Options{Workers: 2})
		defer mustClose(t, e)
		for g := 0; g < graphs; g++ {
			tk, err := e.Submit(coneSink(g, width))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			var got [2]*Stats
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st, err := tk.Wait()
					if err != nil {
						t.Errorf("graph %d waiter %d: %v", g, i, err)
					}
					got[i] = st
				}()
			}
			wg.Wait()
			if got[0] != got[1] || got[0] == nil || got[0].NodesCreated != width+1 {
				t.Fatalf("graph %d: waiters got %+v and %+v", g, got[0], got[1])
			}
		}
		for k := range counts {
			if c := counts[k].Load(); c != 1 {
				t.Fatalf("key %d computed %d times", k, c)
			}
		}
		checkQuiet(t, e)
	})
}

// TestWaitInsideCompute: a Compute may Submit another graph and Wait for
// it; the nested Wait borrows a further parked worker or sleeps, and the
// inner graph is complete when it returns.
func TestWaitInsideCompute(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 8
		var e *Engine
		var innerDone atomic.Int32
		inner, outer := coneSink(1, width), coneSink(0, width)
		spec := coneSpec(2, width, 2, func(k Key) {
			switch k {
			case inner:
				innerDone.Store(1)
			case outer - 1: // one leaf of the outer graph
				tk, err := e.Submit(inner)
				if err != nil {
					t.Error(err)
					return
				}
				if st, err := tk.Wait(); err != nil || st.NodesCreated != width+1 || innerDone.Load() != 1 {
					t.Errorf("nested Wait: stats %+v, err %v, inner sink computed %d", st, err, innerDone.Load())
				}
			}
		})
		e = waitEngine(t, spec, Options{Workers: 3, MaxInflight: 2})
		defer mustClose(t, e)
		tk, err := e.Submit(outer)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := tk.Wait(); err != nil || st.NodesCreated != width+1 {
			t.Fatalf("outer Wait: stats %+v, err %v", st, err)
		}
		checkQuiet(t, e)
	})
}

// TestSubmitNeverWaited: liveness does not depend on Wait. A graph
// submitted to an idle engine and never waited on still completes (the
// deferred wake is issued by its timer), seen here through OnComplete.
func TestSubmitNeverWaited(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 8
		for _, workers := range []int{1, 2} {
			sunk := make(chan struct{}, 1)
			spec := coneSpec(1, width, workers, func(Key) {})
			e := waitEngine(t, spec, Options{Workers: workers, OnComplete: func(_ int, k Key) {
				if k == coneSink(0, width) {
					sunk <- struct{}{}
				}
			}})
			if _, err := e.Submit(coneSink(0, width)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-sunk:
			case <-time.After(30 * time.Second):
				t.Fatalf("workers=%d: a graph nobody waits on never ran", workers)
			}
			checkQuiet(t, e)
			mustClose(t, e)
		}
	})
}

// TestLongGraphGetsSecondWorker: a graph that outlives the deferral is not
// left to its waiter alone. Half of a 10 000-node graph's tasks refuse to
// finish until a second goroutine has run one, so the test completes only
// if a worker is woken while the waiter is busy.
func TestLongGraphGetsSecondWorker(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n = 10000
		var first atomic.Int64
		var second atomic.Bool
		deadline := time.Now().Add(30 * time.Second)
		spec := flatFanInSpec(n, 2, func(k Key) {
			id := goid()
			if !first.CompareAndSwap(0, id) && first.Load() != id {
				second.Store(true)
			}
			for k%2 == 1 && !second.Load() && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		})
		e := waitEngine(t, spec, Options{Workers: 2})
		defer mustClose(t, e)
		tk, err := e.Submit(n)
		if err != nil {
			t.Fatal(err)
		}
		st, err := tk.Wait()
		if err != nil || st.NodesCreated != n+1 {
			t.Fatalf("stats %+v, err %v", st, err)
		}
		if !second.Load() {
			t.Fatal("no second worker ever joined a 10 000-node graph submitted to an idle engine")
		}
		checkQuiet(t, e)
	})
}

// TestWaitNeverBorrowsStuckable: a run admitted with a ctx promises that
// Wait returns once the ctx expires, even while a Compute is still stuck —
// so its Wait must sleep, never compute.
func TestWaitNeverBorrowsStuckable(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 8
		var waiter atomic.Int64
		var onWaiter atomic.Int32
		spec := coneSpec(1, width, 1, func(Key) {
			if goid() == waiter.Load() {
				onWaiter.Add(1)
			}
		})
		waiter.Store(goid())

		e := waitEngine(t, spec, Options{Workers: 1})
		tk, err := e.SubmitCtx(context.Background(), coneSink(0, width))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		checkQuiet(t, e)
		mustClose(t, e)

		if n := onWaiter.Load(); n != 0 {
			t.Fatalf("%d tasks of a ctx run ran on the waiting goroutine", n)
		}
	})
}

// awaitRun fails the test unless r completes. It watches the run's own
// channel (doneChan) rather than Ticket.Done or Wait, so it does nothing
// for the run.
func awaitRun(t *testing.T, what string, r *graphRun) {
	t.Helper()
	select {
	case <-r.ticket.e.doneChan(r):
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: the graph never completed", what)
	}
}

// TestDeferredWakeRetired: with the backstop timer held, a graph submitted
// to an idle engine and never waited on is started by each of the others who
// must not wait the deferral out — Done, a further admission, Execute, Close.
func TestDeferredWakeRetired(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 8
		spec := coneSpec(4, width, 2, func(Key) {})
		cases := map[string]func(t *testing.T, e *Engine, tk *Ticket){
			"done": func(t *testing.T, e *Engine, tk *Ticket) { tk.Done() },
			"second-submit": func(t *testing.T, e *Engine, tk *Ticket) {
				other, err := e.Submit(coneSink(1, width))
				if err != nil {
					t.Fatal(err)
				}
				awaitRun(t, "second graph", other.r)
			},
			"execute": func(t *testing.T, e *Engine, tk *Ticket) {
				if _, err := e.Execute(coneSink(1, width)); err != nil {
					t.Fatal(err)
				}
			},
			"close": func(t *testing.T, e *Engine, tk *Ticket) { mustClose(t, e) },
		}
		for name, retire := range cases {
			t.Run(name, func(t *testing.T) {
				e := waitEngine(t, spec, Options{Workers: 2})
				defer mustClose(t, e) // Close is idempotent
				defer holdTimer(e, nil)()
				tk, err := e.Submit(coneSink(0, width))
				if err != nil {
					t.Fatal(err)
				}
				if e.deferUntil.Load() == 0 {
					t.Fatal("Submit into an idle engine did not defer its wake")
				}
				retire(t, e, tk)
				awaitRun(t, name, tk.r)
				if name != "close" {
					checkQuiet(t, e)
				}
			})
		}
	})
}

// TestArmVsRetire lands each kind of retirement between the two steps of
// arming the deferred wake — the deadline is published, the timer is not set
// yet. The graph being admitted must still get its worker, with the timer
// held wherever the racer is not the timer itself, and the searching count
// must come out exact.
func TestArmVsRetire(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 8
		spec := coneSpec(4, width, 2, func(Key) {})
		racers := map[string]func(t *testing.T, e *Engine, prior *Ticket){
			"wakeNow": func(t *testing.T, e *Engine, prior *Ticket) { e.wakeNow() },
			"done":    func(t *testing.T, e *Engine, prior *Ticket) { prior.Done() },
			"timer":   func(t *testing.T, e *Engine, prior *Ticket) { e.deferredWake() },
			"submit-wait": func(t *testing.T, e *Engine, prior *Ticket) {
				finished := make(chan error, 1)
				go func() {
					tk, err := e.Submit(coneSink(2, width))
					if err == nil {
						_, err = tk.Wait()
					}
					finished <- err
				}()
				if err := <-finished; err != nil {
					t.Error(err)
				}
			},
		}
		for name, racer := range racers {
			t.Run(name, func(t *testing.T) {
				e := waitEngine(t, spec, Options{Workers: 2})
				defer mustClose(t, e)
				me := goid()
				var prior *Ticket
				var staged, hooked atomic.Int32
				hook := func(p yieldPoint, w *worker) {
					if p == yieldArmed && goid() == me && staged.Load() == 1 && hooked.Add(1) == 1 {
						racer(t, e, prior)
					}
				}
				if name == "timer" {
					e.yield = hook
				} else {
					defer holdTimer(e, hook)()
				}
				prior, err := e.Submit(coneSink(0, width))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := prior.Wait(); err != nil {
					t.Fatal(err)
				}
				checkQuiet(t, e)
				staged.Store(1)
				tk, err := e.Submit(coneSink(1, width))
				if err != nil {
					t.Fatal(err)
				}
				if hooked.Load() != 1 {
					t.Fatal("Submit into an idle engine did not defer its wake")
				}
				awaitRun(t, name, tk.r)
				checkQuiet(t, e)
			})
		}
	})
}

// TestDeferralStress is the many-goroutine form of the two tests above: the
// backstop timer is held, so a wake that is lost anywhere is a hang rather
// than a millisecond's stall, and every other hand-over point of the
// protocol yields its P to widen the windows.
func TestDeferralStress(t *testing.T) {
	span := 150 * time.Millisecond
	if testing.Short() {
		span = 40 * time.Millisecond
	}
	atProcs(t, func(t *testing.T) {
		const submitters, graphs, width = 4, 16, 8
		spec := coneSpec(graphs, width, 2, func(Key) {})
		e := waitEngine(t, spec, Options{Workers: 2})
		defer mustClose(t, e)
		defer holdTimer(e, func(yieldPoint, *worker) { runtime.Gosched() })()
		stop := time.Now().Add(span)
		finished := make(chan struct{})
		var wg sync.WaitGroup
		for id := 0; id < submitters; id++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Cones g = id mod submitters belong to this submitter, so no
				// cone is ever in flight twice.
				for i := 0; time.Now().Before(stop); i++ {
					tk, err := e.Submit(coneSink((i*submitters+id)%graphs, width))
					if err != nil {
						t.Error(err)
						return
					}
					if i%2 == 0 {
						<-tk.Done()
					}
					if st, err := tk.Wait(); err != nil || st.NodesCreated != width+1 {
						t.Errorf("Wait: stats %+v, err %v", st, err)
					}
				}
			}()
		}
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(span + 30*time.Second):
			t.Fatalf("hung: searching=%d parked=%d deferUntil=%d pending=%d active=%d",
				e.searching.Load(), e.parked.Load(), e.deferUntil.Load(), len(e.pending), e.active.Load())
		}
		checkQuiet(t, e)
	})
}

// TestCanceledRunsDoNotClogPending: a run canceled before any worker
// reached it gives its slot back but stays in the pending queue until
// polled out. With the wake deferred nobody polls, so admissions must sweep
// such entries out themselves rather than block — under stateMu — on a
// queue full of dead runs.
func TestCanceledRunsDoNotClogPending(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const width = 4
		spec := coneSpec(16, width, 1, func(Key) {})
		e := waitEngine(t, spec, Options{Workers: 1, MaxInflight: 2})
		defer mustClose(t, e)
		defer holdTimer(e, nil)()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for g := 0; g < 12; g++ {
				tk, err := e.Submit(coneSink(g, width))
				if err != nil {
					t.Error(err)
					return
				}
				if !tk.Cancel() {
					t.Errorf("graph %d: Cancel lost on an engine nobody woke", g)
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("Submit blocked on a pending queue full of canceled runs")
		}
		tk, err := e.Submit(coneSink(12, width))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := tk.Wait(); err != nil || st.NodesCreated != width+1 {
			t.Fatalf("graph after the cancels: stats %+v, err %v", st, err)
		}
		checkQuiet(t, e)
	})
}

// TestWaitStress mixes every way of using a Ticket — Wait at once, Wait
// from two goroutines, Done, Cancel, a pause before Wait — from several
// submitters on engines of 1, 2 and 4 workers: every graph that is not
// canceled completes with each task run once, and the engine's park books
// balance afterwards.
func TestWaitStress(t *testing.T) {
	span := 150 * time.Millisecond
	if testing.Short() {
		span = 40 * time.Millisecond
	}
	atProcs(t, func(t *testing.T) {
		for _, workers := range []int{1, 2, 4} {
			const submitters, graphs, width = 6, 60, 12
			var computed, completed atomic.Int64
			spec := coneSpec(graphs, width, workers, func(Key) { computed.Add(1) })
			e := waitEngine(t, spec, Options{Workers: workers, MaxInflight: 8})
			stop := time.Now().Add(span)
			var wg sync.WaitGroup
			for id := 0; id < submitters; id++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)))
					// Cones g = id mod submitters belong to this submitter, so
					// no cone is ever in flight twice.
					for i := 0; time.Now().Before(stop); i++ {
						tk, err := e.Submit(coneSink((i*submitters+id)%graphs, width))
						if err != nil {
							t.Error(err)
							return
						}
						switch rng.Intn(6) {
						case 0:
							<-tk.Done()
						case 1:
							tk.Cancel()
						case 2:
							for n := rng.Intn(200); n > 0; n-- {
								runtime.Gosched()
							}
						case 3:
							other := make(chan struct{})
							go func() { tk.Wait(); close(other) }()
							tk.Wait()
							<-other
						}
						switch st, err := tk.Wait(); {
						case err == nil && st.NodesCreated == width+1:
							completed.Add(1)
						case !errors.Is(err, ErrCanceled):
							t.Errorf("Wait: stats %+v, err %v", st, err)
						}
					}
				}()
			}
			wg.Wait()
			checkQuiet(t, e)
			mustClose(t, e)
			// A canceled graph may have run some tasks first; a completed one
			// ran all of its own exactly once.
			if c, want := computed.Load(), completed.Load()*(width+1); completed.Load() == 0 || c < want {
				t.Fatalf("workers=%d: %d graphs completed, %d tasks ran, want >= %d", workers, completed.Load(), c, want)
			}
		}
	})
}
