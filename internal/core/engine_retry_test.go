package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errInjectedTest = errors.New("injected test failure")

// flakyConeSpec builds a 2-graph cone forest whose flaky key fails its
// first fails ComputeErr attempts (wrapping errInjectedTest) and then
// succeeds; every successful body increments counts.
func flakyConeSpec(width, workers int, flaky Key, fails int32, counts []atomic.Int32, attempts *atomic.Int32) FuncSpec {
	spec := coneSpec(2, width, workers, nil)
	spec.ComputeErrFn = func(k Key) error {
		if k == flaky {
			if n := attempts.Add(1); n <= fails {
				return fmt.Errorf("flaky %d attempt %d: %w", k, n, errInjectedTest)
			}
		}
		counts[int(k)].Add(1)
		return nil
	}
	return spec
}

// TestRetryMatrix pins the retry tentpole across both slot rules × worker
// count: a transiently failing node (2
// failures, MaxAttempts 3, real backoff timers) recovers, the graph and
// a concurrent healthy graph both complete with an exactly-once census,
// Stats.Retries ledgers exactly the injected failures, and the engine
// stays reusable.
func TestRetryMatrix(t *testing.T) {
	const width = 24
	stride := width + 1
	flaky := Key(3) // leaf 3 of graph 0
	faultMatrix(t, func(t *testing.T, row tableRow, workers int) {
		counts := make([]atomic.Int32, 2*stride)
		var attempts atomic.Int32
		e, err := NewEngine(row.spec(flakyConeSpec(width, workers, flaky, 2, counts, &attempts)), Options{
			Workers: workers, Policy: NabbitCPolicy(),
			Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 200 * time.Microsecond},
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
		bst, berr := bad.Wait()
		if berr != nil {
			t.Fatalf("flaky graph failed despite retry budget: %v", berr)
		}
		if bst.Retries != 2 {
			t.Errorf("flaky graph Stats.Retries = %d, want 2", bst.Retries)
		}
		gst, gerr := good.Wait()
		if gerr != nil {
			t.Fatalf("healthy graph failed beside a retrying one: %v", gerr)
		}
		if gst.Retries != 0 {
			t.Errorf("healthy graph Stats.Retries = %d, want 0", gst.Retries)
		}
		for k := range counts { // failed attempts never run the node body
			if c := counts[k].Load(); c != 1 {
				t.Errorf("key %d computed %d times, want 1", k, c)
			}
		}
		st, err := e.Execute(coneSink(0, width)) // transient budget spent: clean reuse
		if err != nil {
			t.Fatalf("Execute after recovered run: %v", err)
		}
		if st.Retries != 0 {
			t.Errorf("reuse run Stats.Retries = %d, want 0", st.Retries)
		}
	})
}

// TestRetryExhaustion: a permanently failing node exhausts MaxAttempts
// and fails its run with a *ComputeError that ledgers the attempts and
// unwraps to both ErrComputeFailed and the spec's own cause.
func TestRetryExhaustion(t *testing.T) {
	const width = 8
	spec := coneSpec(1, width, 1, nil)
	spec.ComputeErrFn = func(k Key) error {
		if k == 2 {
			return fmt.Errorf("permanent: %w", errInjectedTest)
		}
		return nil
	}
	e, err := NewEngine(spec, Options{
		Workers: 1, Policy: NabbitCPolicy(), Retry: RetryPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, werr := e.Execute(coneSink(0, width))
	var ce *ComputeError
	if !errors.As(werr, &ce) {
		t.Fatalf("err = %v (%T), want *ComputeError", werr, werr)
	}
	if ce.Key != 2 || ce.Attempts != 2 {
		t.Errorf("ComputeError = key %d attempts %d, want key 2 attempts 2", ce.Key, ce.Attempts)
	}
	if !errors.Is(werr, ErrComputeFailed) || !errors.Is(werr, errInjectedTest) {
		t.Errorf("err %v must unwrap to ErrComputeFailed and the spec's cause", werr)
	}
	if _, err := e.Execute(coneSink(0, width)); !errors.As(err, &ce) {
		t.Fatalf("re-Execute of the poisoned graph = %v, want *ComputeError again", err)
	}
}

// hangConeEngine builds a 2-graph cone engine (plus opts overrides)
// whose graph-0 leaf 0 blocks on the returned gate, signalling entered
// on first arrival.
func hangConeEngine(t *testing.T, width, workers int, opts Options) (e *Engine, gate chan struct{}, entered chan struct{}) {
	t.Helper()
	gate = make(chan struct{})
	entered = make(chan struct{})
	var once atomic.Bool
	spec := coneSpec(2, width, workers, func(k Key) {
		if k == 0 {
			if once.CompareAndSwap(false, true) {
				close(entered)
			}
			<-gate
		}
	})
	if opts.Workers == 0 {
		opts.Workers = workers
	}
	if !opts.Policy.Colored {
		opts.Policy = NabbitCPolicy()
	}
	e, err := NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, gate, entered
}

// TestWatchdogHang pins the watchdog tentpole: a node that hangs past
// NodeTimeout fails only its owning graph, with a *TimeoutError naming
// the node, within 2× NodeTimeout of the hang being detectable; a
// concurrent healthy graph passes its exactly-once census; the stuck
// goroutine's eventual return is dropped harmlessly and the engine
// stays reusable.
func TestWatchdogHang(t *testing.T) {
	const width = 8
	const nodeTimeout = 400 * time.Millisecond
	stride := width + 1
	counts := make([]atomic.Int32, 2*stride)
	gate := make(chan struct{})
	spec := coneSpec(2, width, 4, func(k Key) {
		if k == 0 {
			<-gate
		}
		counts[int(k)].Add(1)
	})
	e, err := NewEngine(spec, Options{
		Workers: 4, Policy: NabbitCPolicy(), NodeTimeout: nodeTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(gate) })
	defer e.Close()
	defer release() // LIFO: free the stuck worker before Close drains

	start := time.Now()
	hung, err := e.Submit(coneSink(0, width))
	if err != nil {
		t.Fatal(err)
	}
	good, err := e.Submit(coneSink(1, width))
	if err != nil {
		t.Fatal(err)
	}
	st, werr := hung.Wait()
	elapsed := time.Since(start)
	if st != nil || werr == nil {
		t.Fatalf("hung graph Wait = (%v, %v), want (nil, *TimeoutError)", st, werr)
	}
	var te *TimeoutError
	if !errors.As(werr, &te) || !errors.Is(werr, ErrTimeout) {
		t.Fatalf("hung graph err = %v (%T), want *TimeoutError matching ErrTimeout", werr, werr)
	}
	if te.Key != 0 || te.Limit != nodeTimeout {
		t.Errorf("TimeoutError = %+v, want Key=0 Limit=%v", te, nodeTimeout)
	}
	if elapsed > 2*nodeTimeout {
		t.Errorf("watchdog took %v, want <= 2x NodeTimeout (%v)", elapsed, 2*nodeTimeout)
	}

	if _, err := good.Wait(); err != nil {
		t.Fatalf("healthy graph failed beside a hung one: %v", err)
	}
	for k := stride; k < 2*stride; k++ {
		if c := counts[k].Load(); c != 1 {
			t.Errorf("healthy graph key %d computed %d times, want 1", k, c)
		}
	}
	// Free the stuck goroutine: its late completion lands on a dead run
	// and must be dropped without corrupting the engine for reuse.
	release()
	if _, err := e.Execute(coneSink(1, width)); err != nil {
		t.Fatalf("Execute after watchdog kill: %v", err)
	}
}

// TestRetryBackoff pins the retry schedule: the backoff after failed
// attempt n is BaseBackoff × 2^(n-1), up to the largest BaseBackoff
// whose last backoff still fits in a time.Duration (a larger one is
// rejected: TestOptionsValidation), and a zero BaseBackoff re-enqueues
// every retry at once.
func TestRetryBackoff(t *testing.T) {
	for _, base := range []time.Duration{0, time.Millisecond, math.MaxInt64 >> (MaxRetryAttempts - 2)} {
		e, err := NewEngine(FuncSpec{}, Options{Workers: 1, Retry: RetryPolicy{MaxAttempts: MaxRetryAttempts, BaseBackoff: base}})
		if err != nil {
			t.Fatalf("BaseBackoff %v: %v", base, err)
		}
		want := base
		for n := 1; n < MaxRetryAttempts; n++ {
			if got := e.retryBackoff(n); got != want {
				t.Errorf("BaseBackoff %v: backoff after attempt %d = %v, want %v", base, n, got, want)
			}
			want *= 2
		}
		e.Close()
	}
}

// TestErrorBudget pins graceful degradation: an optional node that
// exhausts its retries is skipped along with its downstream cone, the
// rest of the graph completes, and Wait returns BOTH Stats and a
// *PartialError naming the failed and skipped keys.
func TestErrorBudget(t *testing.T) {
	const width = 8
	spec := coneSpec(1, width, 1, nil)
	spec.ComputeErrFn = func(k Key) error {
		if k == 2 {
			return fmt.Errorf("permanent: %w", errInjectedTest)
		}
		return nil
	}
	spec.OptionalFn = func(k Key) bool { return k == 2 }
	e, err := NewEngine(spec, Options{
		Workers: 1, Policy: NabbitCPolicy(),
		Retry: RetryPolicy{MaxAttempts: 2}, ErrorBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, werr := e.Execute(coneSink(0, width))
	if st == nil || werr == nil {
		t.Fatalf("degraded Execute = (%v, %v), want Stats AND *PartialError", st, werr)
	}
	var pe *PartialError
	if !errors.As(werr, &pe) || !errors.Is(werr, ErrPartial) {
		t.Fatalf("degraded err = %v (%T), want *PartialError matching ErrPartial", werr, werr)
	}
	sink := coneSink(0, width)
	if len(pe.Failed) != 1 || pe.Failed[0] != 2 {
		t.Errorf("PartialError.Failed = %v, want [2]", pe.Failed)
	}
	if len(pe.Skipped) != 1 || pe.Skipped[0] != sink || pe.SkippedTotal != 1 {
		t.Errorf("PartialError.Skipped = %v (total %d), want [%d] (total 1)",
			pe.Skipped, pe.SkippedTotal, sink)
	}
	if st.Retries != 1 || st.Skipped != 1 || st.TimedOut != 0 {
		t.Errorf("Stats = retries %d skipped %d timedOut %d, want 1/1/0",
			st.Retries, st.Skipped, st.TimedOut)
	}
	// TotalNodes counts only the width-1 healthy leaves that executed.
	if st.TotalNodes() != int64(width-1) {
		t.Errorf("TotalNodes = %d, want %d", st.TotalNodes(), width-1)
	}
	// A fresh run of the same graph degrades again — budgets are
	// per-run, not per-engine.
	if st2, err2 := e.Execute(sink); st2 == nil || !errors.As(err2, &pe) {
		t.Fatalf("second degraded Execute = (%v, %v), want Stats + *PartialError", st2, err2)
	}
}

// TestErrorBudgetCascade: the degradation cascade poisons the whole
// downstream cone of a skipped node, not just its immediate successor.
func TestErrorBudgetCascade(t *testing.T) {
	// Chain 3 <- 2 <- 1 <- 0: node 1 fails permanently, so 2 and 3 are
	// skipped while leaf 0 still executes.
	var executed atomic.Int32
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			if k == 0 {
				return nil
			}
			return []Key{k - 1}
		},
		ComputeErrFn: func(k Key) error {
			if k == 1 {
				return errInjectedTest
			}
			executed.Add(1)
			return nil
		},
		OptionalFn: func(k Key) bool { return k == 1 },
		BoundFn:    func() int { return 4 },
	}
	e, err := NewEngine(spec, Options{
		Workers: 2, Policy: NabbitCPolicy(), Retry: RetryPolicy{MaxAttempts: 1}, ErrorBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, werr := e.Execute(3)
	var pe *PartialError
	if st == nil || !errors.As(werr, &pe) {
		t.Fatalf("chain Execute = (%v, %v), want Stats + *PartialError", st, werr)
	}
	if len(pe.Failed) != 1 || pe.Failed[0] != 1 {
		t.Errorf("Failed = %v, want [1]", pe.Failed)
	}
	if len(pe.Skipped) != 2 || pe.Skipped[0] != 2 || pe.Skipped[1] != 3 || pe.SkippedTotal != 2 {
		t.Errorf("Skipped = %v (total %d), want [2 3] (total 2)", pe.Skipped, pe.SkippedTotal)
	}
	if got := executed.Load(); got != 1 {
		t.Errorf("executed %d nodes, want 1 (leaf 0 only)", got)
	}
}

// TestErrorBudgetExhausted: with more permanent optional failures than
// budget, the over-budget failure fails the run outright.
func TestErrorBudgetExhausted(t *testing.T) {
	const width = 8
	spec := coneSpec(1, width, 1, nil)
	spec.ComputeErrFn = func(k Key) error {
		if k == 2 || k == 5 {
			return errInjectedTest
		}
		return nil
	}
	spec.OptionalFn = func(k Key) bool { return true }
	e, err := NewEngine(spec, Options{
		Workers: 1, Policy: NabbitCPolicy(), Retry: RetryPolicy{MaxAttempts: 1}, ErrorBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, werr := e.Execute(coneSink(0, width))
	var ce *ComputeError
	if st != nil || !errors.As(werr, &ce) {
		t.Fatalf("over-budget Execute = (%v, %v), want (nil, *ComputeError)", st, werr)
	}
}

// TestWatchdogDegrade: a hung OPTIONAL node within the error budget is
// skipped by the monitor instead of failing the run; the graph
// completes degraded with Stats.TimedOut ledgered, and the stuck
// goroutine's late return is dropped.
func TestWatchdogDegrade(t *testing.T) {
	const width = 8
	gate := make(chan struct{})
	spec := coneSpec(1, width, 2, func(k Key) {
		if k == 0 {
			<-gate
		}
	})
	spec.OptionalFn = func(k Key) bool { return k == 0 }
	e, err := NewEngine(spec, Options{
		Workers: 2, Policy: NabbitCPolicy(),
		NodeTimeout: 40 * time.Millisecond, ErrorBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer close(gate)

	st, werr := e.Execute(coneSink(0, width))
	var pe *PartialError
	if st == nil || !errors.As(werr, &pe) {
		t.Fatalf("hung-optional Execute = (%v, %v), want Stats + *PartialError", st, werr)
	}
	if len(pe.Failed) != 1 || pe.Failed[0] != 0 {
		t.Errorf("Failed = %v, want [0]", pe.Failed)
	}
	if st.TimedOut != 1 || st.Skipped != 1 {
		t.Errorf("Stats = timedOut %d skipped %d, want 1/1", st.TimedOut, st.Skipped)
	}
}

// TestWatchdogDegradeSamplesOnce: the monitor keeps sampling a degraded
// node whose Compute still hangs, and those later samples must leave the
// run alone. The other leaves, each well within NodeTimeout, keep the
// second worker busy for several monitor ticks after leaf 0 is degraded,
// with the error budget spent on leaf 0; the run must still complete
// degraded, not fail with a *TimeoutError.
func TestWatchdogDegradeSamplesOnce(t *testing.T) {
	const width = 13
	const nodeTimeout = 100 * time.Millisecond
	gate := make(chan struct{})
	spec := coneSpec(1, width, 2, func(k Key) {
		switch {
		case k == 0:
			<-gate
		case k < width:
			time.Sleep(nodeTimeout / 5)
		}
	})
	spec.OptionalFn = func(k Key) bool { return k == 0 }
	e, err := NewEngine(spec, Options{
		Workers: 2, Policy: NabbitCPolicy(),
		NodeTimeout: nodeTimeout, ErrorBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer close(gate)

	st, werr := e.Execute(coneSink(0, width))
	var pe *PartialError
	if st == nil || !errors.As(werr, &pe) {
		t.Fatalf("Execute = (%v, %v), want Stats + *PartialError", st, werr)
	}
	if len(pe.Failed) != 1 || pe.Failed[0] != 0 || st.TimedOut != 1 {
		t.Errorf("Failed = %v, TimedOut = %d, want [0] and 1", pe.Failed, st.TimedOut)
	}
}

// TestCancelAfterCompletion: Cancel on a completed ticket reports false
// and leaves the recorded Stats untouched.
func TestCancelAfterCompletion(t *testing.T) {
	const width = 8
	spec := coneSpec(1, width, 1, nil)
	e, err := NewEngine(spec, Options{Workers: 1, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tk, err := e.Submit(coneSink(0, width))
	if err != nil {
		t.Fatal(err)
	}
	st, werr := tk.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if tk.Cancel() {
		t.Fatal("Cancel after completion reported true")
	}
	st2, werr2 := tk.Wait()
	if werr2 != nil || st2 != st || st2.NodesCreated != width+1 {
		t.Fatalf("post-Cancel Wait = (%+v, %v), want the original stats unchanged", st2, werr2)
	}
}

// TestCancelVsWatchdog races a user Cancel against the hang watchdog on
// the same stuck graph: exactly one failure cause wins — Cancel's
// report agrees with Wait's error — and the engine survives either
// outcome.
func TestCancelVsWatchdog(t *testing.T) {
	const width = 8
	const nodeTimeout = 30 * time.Millisecond
	e, gate, entered := hangConeEngine(t, width, 2, Options{
		Workers: 2, NodeTimeout: nodeTimeout,
	})
	release := sync.OnceFunc(func() { close(gate) })
	defer e.Close()
	defer release()

	tk, err := e.Submit(coneSink(0, width))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	time.Sleep(nodeTimeout) // land the Cancel near the watchdog's claim
	won := tk.Cancel()
	st, werr := tk.Wait()
	if st != nil || werr == nil {
		t.Fatalf("raced Wait = (%v, %v), want a single failure", st, werr)
	}
	var te *TimeoutError
	switch {
	case won:
		if !errors.Is(werr, ErrCanceled) {
			t.Fatalf("Cancel won but Wait err = %v, want ErrCanceled", werr)
		}
	case errors.As(werr, &te):
		// Watchdog won; Cancel correctly reported false.
	default:
		t.Fatalf("Cancel lost but Wait err = %v, want *TimeoutError", werr)
	}
	release()
	if _, err := e.Execute(coneSink(1, width)); err != nil {
		t.Fatalf("Execute after the race: %v", err)
	}
}

// cancelInBackoff returns an engine whose last run, a single node that
// fails once and retries after backoff, was canceled while the retry was
// in backoff.
func cancelInBackoff(t *testing.T, backoff time.Duration) *Engine {
	t.Helper()
	spec := FuncSpec{ComputeErrFn: func(k Key) error {
		if k == 0 {
			return errInjectedTest
		}
		return nil
	}}
	e, err := NewEngine(spec, Options{
		Workers: 2, Policy: NabbitCPolicy(), Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: backoff},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for e.retryOut.Load() == 0 && ctx.Err() == nil {
			time.Sleep(10 * time.Microsecond)
		}
		cancel() // key 0's retry is now in backoff
	}()
	if _, err := e.ExecuteCtx(ctx, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run = %v, want ErrCanceled", err)
	}
	return e
}

// TestQuietWaitsForBackoffRetry: a run canceled while one of its retries
// is in backoff must not leave a live timer behind, because the timer's
// enqueue wakes a worker, which writes its stats. The next Execute — a
// single-node graph that finishes long before the backoff — resets and
// gathers the workers' stats in the quiet state, which holds no retry in
// backoff. Taking the pool for quiet with the retry still out let the
// gather read a worker's stats that the timer's wake then wrote, with
// nothing ordering the two: a -race report.
func TestQuietWaitsForBackoffRetry(t *testing.T) {
	e := cancelInBackoff(t, 20*time.Millisecond)
	st, err := e.Execute(1)
	if err != nil || st.TotalNodes() != 1 {
		t.Fatalf("Execute after the canceled run = (%v, %v), want one node", st, err)
	}
	if e.retryOut.Load() != 0 || e.retryDue.Load() != 0 {
		t.Error("Execute ran while the canceled run's retry was still out")
	}
	// Let a live backoff timer fire and its wake settle before the test
	// ends, so an Execute that ran beside it races with it here.
	for e.retryOut.Load() != 0 || e.retryDue.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	checkQuiet(t, e)
}

// TestCancelStopsBackoff: canceling a run stops its retries' backoff
// timers, so the next Execute goes ahead at once instead of waiting a long
// backoff out for the engine to go quiet.
func TestCancelStopsBackoff(t *testing.T) {
	const backoff = 10 * time.Second
	e := cancelInBackoff(t, backoff)
	if n := e.retryOut.Load(); n != 0 {
		t.Fatalf("canceled run left %d backoff timers running", n)
	}
	start := time.Now()
	st, err := e.Execute(1)
	if err != nil || st.TotalNodes() != 1 {
		t.Fatalf("Execute after the canceled run = (%v, %v), want one node", st, err)
	}
	if took := time.Since(start); took > backoff/2 {
		t.Fatalf("Execute after the canceled run took %v, waiting out the %v backoff", took, backoff)
	}
	checkQuiet(t, e)
}

// TestStallPendingDiagnostics pins StallError's shape on a graph whose
// pending set exceeds StallPendingMax, under both slot rules: the
// sample is ascending and truncated while PendingTotal keeps the true
// count.
func TestStallPendingDiagnostics(t *testing.T) {
	// Chain 0 <- 1 <- ... <- 100 with a 99<->100 cycle at the top: all
	// 101 created nodes hang below the cycle.
	const nodes = StallPendingMax + 37
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			if int(k) == nodes-1 {
				return []Key{Key(nodes - 2)}
			}
			return []Key{k + 1}
		},
		FootprintFn: func(Key) Footprint { return Footprint{Compute: 1} },
		BoundFn:     func() int { return nodes },
	}
	for _, row := range tableRows {
		t.Run(row.name, func(t *testing.T) {
			e, err := NewEngine(row.spec(spec), Options{
				Workers: 2, Policy: NabbitCPolicy(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			_, werr := e.Execute(0)
			var se *StallError
			if !errors.As(werr, &se) || !errors.Is(werr, ErrStalled) {
				t.Fatalf("cyclic Execute err = %v (%T), want *StallError matching ErrStalled", werr, werr)
			}
			if se.Sink != 0 || se.PendingTotal != nodes {
				t.Errorf("stall = sink %d total %d, want sink 0 total %d", se.Sink, se.PendingTotal, nodes)
			}
			if len(se.Pending) != StallPendingMax {
				t.Fatalf("Pending sample has %d keys, want truncation at %d", len(se.Pending), StallPendingMax)
			}
			for i, k := range se.Pending {
				if k != Key(i) {
					t.Fatalf("Pending[%d] = %d, want ascending keys starting at 0", i, k)
				}
			}
			if _, err := e.Execute(0); !errors.As(err, &se) {
				t.Fatalf("engine unusable after stall: %v", err)
			}
		})
	}
}

// TestFailureTaxonomy is the table-driven errors.Is/errors.As contract
// over all five failure classes: compute failure (error and panic),
// watchdog timeout, partial completion, dependence stall, and
// cancellation. Every class must expose its sentinel through errors.Is
// and its typed detail through errors.As.
func TestFailureTaxonomy(t *testing.T) {
	const width = 4
	cases := []struct {
		name string
		make func(t *testing.T) error
		is   []error
		as   func(error) bool
	}{
		{
			name: "compute-error-exhausted",
			make: func(t *testing.T) error {
				spec := coneSpec(1, width, 1, nil)
				spec.ComputeErrFn = func(k Key) error {
					if k == 1 {
						return errInjectedTest
					}
					return nil
				}
				e, err := NewEngine(spec, Options{
					Workers: 1, Policy: NabbitCPolicy(), Retry: RetryPolicy{MaxAttempts: 2},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				_, werr := e.Execute(coneSink(0, width))
				return werr
			},
			is: []error{ErrComputeFailed, errInjectedTest},
			as: func(err error) bool {
				var ce *ComputeError
				return errors.As(err, &ce) && ce.Key == 1 && ce.Attempts == 2
			},
		},
		{
			name: "compute-panic",
			make: func(t *testing.T) error {
				e, err := NewEngine(coneSpec(1, width, 1, func(k Key) {
					if k == 1 {
						panic("boom")
					}
				}), Options{Workers: 1, Policy: NabbitCPolicy()})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				_, werr := e.Execute(coneSink(0, width))
				return werr
			},
			is: []error{ErrComputeFailed},
			as: func(err error) bool {
				var ce *ComputeError
				return errors.As(err, &ce) && ce.Value == "boom" && ce.Attempts == 0
			},
		},
		{
			name: "timeout",
			make: func(t *testing.T) error {
				gate := make(chan struct{})
				e, err := NewEngine(coneSpec(1, width, 2, func(k Key) {
					if k == 1 {
						<-gate
					}
				}), Options{Workers: 2, Policy: NabbitCPolicy(), NodeTimeout: 30 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				// LIFO: the gate must close before Close drains workers.
				t.Cleanup(func() { e.Close() })
				t.Cleanup(func() { close(gate) })
				_, werr := e.Execute(coneSink(0, width))
				return werr
			},
			is: []error{ErrTimeout},
			as: func(err error) bool {
				var te *TimeoutError
				return errors.As(err, &te) && te.Key == 1
			},
		},
		{
			name: "partial",
			make: func(t *testing.T) error {
				spec := coneSpec(1, width, 1, nil)
				spec.ComputeErrFn = func(k Key) error {
					if k == 1 {
						return errInjectedTest
					}
					return nil
				}
				spec.OptionalFn = func(k Key) bool { return k == 1 }
				e, err := NewEngine(spec, Options{
					Workers: 1, Policy: NabbitCPolicy(),
					Retry: RetryPolicy{MaxAttempts: 1}, ErrorBudget: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				_, werr := e.Execute(coneSink(0, width))
				return werr
			},
			is: []error{ErrPartial},
			as: func(err error) bool {
				var pe *PartialError
				return errors.As(err, &pe) && len(pe.Failed) == 1 && pe.Failed[0] == 1
			},
		},
		{
			name: "stalled",
			make: func(t *testing.T) error {
				spec := FuncSpec{
					PredsFn: func(k Key) []Key {
						switch k {
						case 0:
							return []Key{1}
						case 1:
							return []Key{2}
						default:
							return []Key{1}
						}
					},
					BoundFn: func() int { return 3 },
				}
				e, err := NewEngine(spec, Options{Workers: 2, Policy: NabbitCPolicy()})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				_, werr := e.Execute(0)
				return werr
			},
			is: []error{ErrStalled},
			as: func(err error) bool {
				var se *StallError
				return errors.As(err, &se) && se.Sink == 0
			},
		},
		{
			name: "canceled",
			make: func(t *testing.T) error {
				e, gate, entered := gatedConeEngine(t, width, 2, 1)
				t.Cleanup(func() { e.Close() })
				t.Cleanup(func() { close(gate) })
				tk, err := e.Submit(coneSink(0, width))
				if err != nil {
					t.Fatal(err)
				}
				<-entered
				tk.Cancel()
				_, werr := tk.Wait()
				return werr
			},
			is: []error{ErrCanceled},
			as: func(err error) bool { return true },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.make(t)
			if err == nil {
				t.Fatal("scenario produced no error")
			}
			for _, sentinel := range tc.is {
				if !errors.Is(err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false, want true", err, sentinel)
				}
			}
			if !tc.as(err) {
				t.Errorf("typed detail assertion failed for %v (%T)", err, err)
			}
		})
	}
}
