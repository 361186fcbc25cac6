package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// faultMatrix runs fn across both slot rules (tableRows) × the pinned
// worker counts — the full combination space the failure model must hold
// on. Subtests keep the engine deque's name as their first element.
func faultMatrix(t *testing.T, fn func(t *testing.T, row tableRow, workers int)) {
	for _, row := range tableRows {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("mutex/%s/w%d", row.name, workers), func(t *testing.T) {
				fn(t, row, workers)
			})
		}
	}
}

// TestPanicIsolationMatrix pins the panic-isolation tentpole across the
// fault matrix: a graph whose Compute panics fails its own Ticket with a
// *ComputeError (key, graph, recovered value, stack) while a
// concurrently submitted healthy graph on the same engine completes
// with an exactly-once census, and the engine remains fully reusable.
func TestPanicIsolationMatrix(t *testing.T) {
	const width = 24
	stride := width + 1
	panicKey := Key(3) // leaf 3 of graph 0
	faultMatrix(t, func(t *testing.T, row tableRow, workers int) {
		counts := make([]atomic.Int32, 2*stride)
		compute := func(k Key) {
			if k == panicKey {
				panic(fmt.Sprintf("chaos at %d", k))
			}
			counts[int(k)].Add(1)
		}
		e, err := NewEngine(row.spec(coneSpec(2, width, workers, compute)), Options{
			Workers: workers, Policy: NabbitCPolicy(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		bad, err := e.Submit(coneSink(0, width))
		if err != nil {
			t.Fatal(err)
		}
		good, err := e.Submit(coneSink(1, width))
		if err != nil {
			t.Fatal(err)
		}

		if _, berr := bad.Wait(); berr == nil {
			t.Fatal("poisoned graph completed without error")
		} else {
			var ce *ComputeError
			if !errors.As(berr, &ce) {
				t.Fatalf("poisoned graph error = %v (%T), want *ComputeError", berr, berr)
			}
			if ce.Key != panicKey {
				t.Errorf("ComputeError.Key = %d, want %d", ce.Key, panicKey)
			}
			if want := fmt.Sprintf("chaos at %d", panicKey); ce.Value != want {
				t.Errorf("ComputeError.Value = %v, want %q", ce.Value, want)
			}
			if len(ce.Stack) == 0 {
				t.Error("ComputeError.Stack is empty")
			}
		}

		gst, gerr := good.Wait()
		if gerr != nil {
			t.Fatalf("healthy graph failed beside a poisoned one: %v", gerr)
		}
		if gst.NodesCreated != stride {
			t.Errorf("healthy NodesCreated = %d, want %d", gst.NodesCreated, stride)
		}
		for k := 0; k < stride; k++ { // poisoned graph: at-most-once, panic key never counted
			if c := counts[k].Load(); c > 1 || (Key(k) == panicKey && c != 0) {
				t.Errorf("poisoned graph key %d computed %d times", k, c)
			}
		}
		for k := stride; k < 2*stride; k++ { // healthy graph: exactly-once
			if c := counts[k].Load(); c != 1 {
				t.Errorf("healthy graph key %d computed %d times, want 1", k, c)
			}
		}

		// Reuse after failure: the poisoned graph's quarantined table
		// must come back clean for the next run.
		st, err := e.Execute(coneSink(1, width))
		if err != nil {
			t.Fatalf("Execute after panic-failed run: %v", err)
		}
		if st.NodesCreated != stride {
			t.Errorf("post-failure NodesCreated = %d, want %d", st.NodesCreated, stride)
		}
	})
}

// TestPanicFailureScheduleIdentity pins that failure and recovery leave
// no residue in a single-worker engine's schedule. Each row gives one
// engine a history, then Executes a cone graph whose completion schedule
// must be byte-identical to a fresh, plain engine's run of the same graph:
//   - after-panic: the previous run failed with a panic.
//   - fallible-no-faults: the spec reports failures as values under a
//     retry policy, but nothing fails — the fallible path is a scheduling
//     no-op.
//   - healthy-after-retries: the previous run recovered a node through
//     two retries; the next graph keeps a clean engine's schedule.
//   - replay-after-retries: the retried graph itself, run again once its
//     transient failures are spent, replays byte-identically.
//
// The cones' predecessor slices are stable, so a repeat Execute of a sink
// replays (Stats.Replayed) instead of rediscovering the graph.
func TestPanicFailureScheduleIdentity(t *testing.T) {
	const width = 16
	type step struct {
		w int
		k Key
	}
	var sched []step
	record := func(w int, k Key) { sched = append(sched, step{w, k}) }
	take := func() []step {
		s := sched
		sched = nil
		return s
	}
	opts := Options{Workers: 1, Policy: NabbitCPolicy(), OnComplete: record}
	g0, g1 := coneSink(0, width), coneSink(1, width)
	cone := func() FuncSpec {
		spec := coneSpec(2, width, 1, nil)
		preds := make([][]Key, 2*(width+1))
		for k := range preds {
			preds[k] = spec.PredsFn(Key(k))
		}
		spec.PredsFn = func(k Key) []Key { return preds[k] }
		return spec
	}
	// flaky fails leaf 1 of graph 0 on its first two attempts.
	flaky := func() FuncSpec {
		spec := cone()
		var fails int
		spec.ComputeErrFn = func(k Key) error {
			if k == 1 && fails < 2 {
				fails++
				return errInjectedTest
			}
			return nil
		}
		return spec
	}
	retried := func(t *testing.T, e *Engine) {
		st, err := e.Execute(g0)
		if err != nil {
			t.Fatalf("flaky Execute: %v", err)
		}
		if st.Retries != 2 {
			t.Fatalf("flaky Execute retried %d times, want 2", st.Retries)
		}
	}

	for _, tc := range []struct {
		name   string
		spec   FuncSpec
		retry  RetryPolicy
		before func(t *testing.T, e *Engine)
		sink   Key
		replay bool
	}{
		{
			name: "after-panic",
			spec: func() FuncSpec {
				spec := cone()
				spec.ComputeFn = func(k Key) {
					if k == 1 {
						panic("chaos")
					}
				}
				return spec
			}(),
			before: func(t *testing.T, e *Engine) {
				var ce *ComputeError
				if _, err := e.Execute(g0); !errors.As(err, &ce) {
					t.Fatalf("poisoned Execute error = %v, want *ComputeError", err)
				}
			},
			sink: g1,
		},
		{
			name: "fallible-no-faults",
			spec: func() FuncSpec {
				spec := cone()
				spec.ComputeErrFn = func(Key) error { return nil }
				return spec
			}(),
			retry: RetryPolicy{MaxAttempts: 3},
			sink:  g0,
		},
		{
			name:   "healthy-after-retries",
			spec:   flaky(),
			retry:  RetryPolicy{MaxAttempts: 3},
			before: retried,
			sink:   g1,
		},
		{
			name:   "replay-after-retries",
			spec:   flaky(),
			retry:  RetryPolicy{MaxAttempts: 3},
			before: retried,
			sink:   g0,
			replay: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ro := opts
			ro.Retry = tc.retry
			e, err := NewEngine(tc.spec, ro)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if tc.before != nil {
				tc.before(t, e)
			}
			take()
			st, err := e.Execute(tc.sink)
			if err != nil {
				t.Fatal(err)
			}
			if st.Replayed != tc.replay || st.Retries != 0 {
				t.Fatalf("checked run: Replayed = %v, Retries = %d; want %v and 0", st.Replayed, st.Retries, tc.replay)
			}
			got := take()

			fresh, err := NewEngine(cone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if _, err := fresh.Execute(tc.sink); err != nil {
				t.Fatal(err)
			}
			want := take()

			if len(got) != len(want) {
				t.Fatalf("schedule has %d steps, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("schedule diverges at step %d: %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// gatedConeEngine builds a 2-graph cone engine whose graph-0 leaf 0
// blocks on gate (signalling entered on arrival); everything else
// computes freely.
func gatedConeEngine(t *testing.T, width, workers, inflight int) (e *Engine, gate, entered chan struct{}) {
	t.Helper()
	gate = make(chan struct{})
	entered = make(chan struct{})
	compute := func(k Key) {
		if k == 0 {
			close(entered)
			<-gate
		}
	}
	e, err := NewEngine(coneSpec(2, width, workers, compute), Options{
		Workers: workers, Policy: NabbitCPolicy(), MaxInflight: inflight,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, gate, entered
}

// TestTicketCancel: Cancel aborts an in-flight graph — Wait returns an
// ErrCanceled-wrapping error without waiting for the blocked node — and
// releases its admission slot so the next submission proceeds.
func TestTicketCancel(t *testing.T) {
	const width = 8
	e, gate, entered := gatedConeEngine(t, width, 2, 1)
	defer e.Close()

	ta, err := e.Submit(coneSink(0, width))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // a worker is inside the gated Compute
	if !ta.Cancel() {
		t.Fatal("Cancel of an in-flight run reported false")
	}
	if ta.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	if st, err := ta.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Wait = (%v, %v), want ErrCanceled", st, err)
	}

	// The slot must be free: with MaxInflight 1 this Submit would block
	// forever (test timeout) if Cancel leaked it.
	tb, err := e.Submit(coneSink(1, width))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Wait(); err != nil {
		t.Fatalf("healthy graph after cancel: %v", err)
	}
	close(gate) // release the worker still parked inside the dead graph's Compute
}

// TestCancelBeforeSeed cancels a graph no worker has touched yet: the
// stale pending entry is discarded, the slot is released, and the
// engine keeps serving.
func TestCancelBeforeSeed(t *testing.T) {
	const width = 8
	e, gate, entered := gatedConeEngine(t, width, 1, 2)
	defer e.Close()

	ta, err := e.Submit(coneSink(0, width)) // occupies the lone worker at the gate
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	tb, err := e.Submit(coneSink(1, width)) // admitted but unseeded: the worker is blocked
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Cancel() {
		t.Fatal("Cancel of an unseeded run reported false")
	}
	if _, err := tb.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("unseeded canceled Wait err = %v, want ErrCanceled", err)
	}
	close(gate)
	if _, err := ta.Wait(); err != nil {
		t.Fatalf("gated graph: %v", err)
	}
	// The worker must drain the stale pending entry and serve new graphs.
	st, err := e.Execute(coneSink(1, width))
	if err != nil {
		t.Fatalf("Execute after unseeded cancel: %v", err)
	}
	if st.NodesCreated != width+1 {
		t.Errorf("NodesCreated = %d, want %d", st.NodesCreated, width+1)
	}
}

// TestSubmitCtxDeadline: a context deadline fails the run with an error
// matching both ErrCanceled and context.DeadlineExceeded, and releases
// the slot.
func TestSubmitCtxDeadline(t *testing.T) {
	const width = 8
	e, gate, entered := gatedConeEngine(t, width, 2, 1)
	defer e.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ta, err := e.SubmitCtx(ctx, coneSink(0, width))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	_, werr := ta.Wait()
	if !errors.Is(werr, ErrCanceled) || !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("deadline Wait err = %v, want ErrCanceled wrapping DeadlineExceeded", werr)
	}
	tb, err := e.Submit(coneSink(1, width)) // slot must be free
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Wait(); err != nil {
		t.Fatalf("healthy graph after deadline: %v", err)
	}
	close(gate)
}

// TestSubmitCtxPreCanceled: an already-expired context never admits.
func TestSubmitCtxPreCanceled(t *testing.T) {
	const width = 8
	e, _, _ := gatedConeEngine(t, width, 2, 4)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SubmitCtx(ctx, coneSink(1, width)); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled SubmitCtx err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	// Nothing was admitted, so the engine is untouched.
	if _, err := e.Execute(coneSink(1, width)); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteCtxDeadline: ExecuteCtx honors the deadline, returns the
// typed error, and leaves the engine reusable.
func TestExecuteCtxDeadline(t *testing.T) {
	const width = 8
	e, gate, _ := gatedConeEngine(t, width, 2, 1)
	defer e.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.ExecuteCtx(ctx, coneSink(0, width))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ExecuteCtx err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	close(gate)
	st, err := e.Execute(coneSink(1, width))
	if err != nil {
		t.Fatalf("Execute after canceled ExecuteCtx: %v", err)
	}
	if st.NodesCreated != width+1 {
		t.Errorf("NodesCreated = %d, want %d", st.NodesCreated, width+1)
	}
}
