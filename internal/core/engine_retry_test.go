package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
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
// count: a transiently failing node recovers — 2 failures under
// MaxAttempts 3, and 11 under 12, since the attempt budget has no cap —
// the graph and a concurrent healthy graph both
// complete with an exactly-once census, Stats.Retries ledgers exactly the
// injected failures, and the engine stays reusable.
func TestRetryMatrix(t *testing.T) {
	const width = 24
	stride := width + 1
	flaky := Key(3) // leaf 3 of graph 0
	faultMatrix(t, func(t *testing.T, row tableRow, workers int) {
		for _, budget := range []struct {
			attempts int
			fails    int32
		}{{3, 2}, {12, 11}} {
			counts := make([]atomic.Int32, 2*stride)
			var attempts atomic.Int32
			e, err := NewEngine(row.spec(flakyConeSpec(width, workers, flaky, budget.fails, counts, &attempts)), Options{
				Workers: workers, Policy: NabbitCPolicy(),
				Retry: RetryPolicy{MaxAttempts: budget.attempts},
			})
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("MaxAttempts %d, %d failures", budget.attempts, budget.fails)
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
				t.Fatalf("%s: flaky graph failed despite retry budget: %v", what, berr)
			}
			if bst.Retries != int64(budget.fails) {
				t.Errorf("%s: flaky graph Stats.Retries = %d, want %d", what, bst.Retries, budget.fails)
			}
			gst, gerr := good.Wait()
			if gerr != nil {
				t.Fatalf("%s: healthy graph failed beside a retrying one: %v", what, gerr)
			}
			if gst.Retries != 0 {
				t.Errorf("%s: healthy graph Stats.Retries = %d, want 0", what, gst.Retries)
			}
			for k := range counts { // failed attempts never run the node body
				if c := counts[k].Load(); c != 1 {
					t.Errorf("%s: key %d computed %d times, want 1", what, k, c)
				}
			}
			st, err := e.Execute(coneSink(0, width)) // transient budget spent: clean reuse
			if err != nil {
				t.Fatalf("%s: Execute after recovered run: %v", what, err)
			}
			if st.Retries != 0 {
				t.Errorf("%s: reuse run Stats.Retries = %d, want 0", what, st.Retries)
			}
			e.Close()
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

// TestOptionalTaskInUserCode pins the pattern doc.go documents for a task
// the graph can do without: the engine knows no optional task, so the
// task's ComputeErr records its own failure in the spec's state and
// returns nil, and the successor that reads its result checks that state.
// The run ends clean — every key runs once, no retry is counted — and so
// the next Execute of the sink replays it.
func TestOptionalTaskInUserCode(t *testing.T) {
	// 0 → {1, 2}, 1 → 3, {2, 3} → 4: key 1 is the optional enrichment,
	// key 3 its reader. Every slice is built once, so a repeat replays.
	preds := [][]Key{nil, {0}, {0}, {1}, {3, 2}}
	const optional, reader, sink = Key(1), Key(3), Key(4)
	var (
		runs       [5]atomic.Int32
		optErr     error // written by the optional task, read by its successor
		sawFailure atomic.Int32
	)
	spec := FuncSpec{
		PredsFn: func(k Key) []Key { return preds[k] },
		ColorFn: func(k Key) int { return int(k) % 2 },
		ComputeErrFn: func(k Key) error {
			runs[k].Add(1)
			switch k {
			case optional:
				optErr = fmt.Errorf("enrichment unavailable: %w", errInjectedTest)
			case reader:
				if errors.Is(optErr, errInjectedTest) {
					sawFailure.Add(1) // the fallback path
				}
			}
			return nil
		},
		BoundFn: func() int { return len(preds) },
	}
	e, err := NewEngine(spec, Options{
		Workers: 2, Policy: NabbitCPolicy(), Retry: RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i, replayed := range []bool{false, true} {
		st, err := e.Execute(sink)
		if err != nil || st == nil {
			t.Fatalf("run %d = (%v, %v), want Stats and no error", i, st, err)
		}
		if st.Replayed != replayed || st.Retries != 0 {
			t.Errorf("run %d: Replayed %v Retries %d, want %v and 0", i, st.Replayed, st.Retries, replayed)
		}
		for k := range runs {
			if c := runs[k].Load(); c != int32(i+1) {
				t.Errorf("run %d: key %d ran %d times in all, want %d", i, k, c, i+1)
			}
		}
		if got := sawFailure.Load(); got != int32(i+1) {
			t.Errorf("run %d: the reader saw the optional task's failure %d times, want %d", i, got, i+1)
		}
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

// TestRetryStopsOnDeadRun: a ComputeErr that cancels its own run and then
// fails is not called again, whatever attempts remain — the retry loop
// stops once the run is no longer live — and Wait returns ErrCanceled. The
// engine stays reusable.
func TestRetryStopsOnDeadRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var calls atomic.Int32
		var tk atomic.Pointer[Ticket]
		admitted := make(chan struct{})
		spec := FuncSpec{ComputeErrFn: func(k Key) error {
			if k != 0 {
				return nil
			}
			<-admitted
			if calls.Add(1) == 1 {
				tk.Load().Cancel()
			}
			return errInjectedTest
		}}
		e, err := NewEngine(spec, Options{
			Workers: workers, Policy: NabbitCPolicy(), Retry: RetryPolicy{MaxAttempts: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		ticket, err := e.Submit(0)
		if err != nil {
			t.Fatal(err)
		}
		tk.Store(ticket)
		close(admitted)
		if _, err := ticket.Wait(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%d workers: run canceled inside ComputeErr = %v, want ErrCanceled", workers, err)
		}
		st, err := e.Execute(1)
		if err != nil || st.TotalNodes() != 1 {
			t.Fatalf("%d workers: Execute after the canceled run = (%v, %v), want one node", workers, st, err)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%d workers: ComputeErr called %d times on the canceled run, want 1", workers, n)
		}
		checkQuiet(t, e)
		e.Close()
	}
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
// over all four failure classes: compute failure (error and panic),
// dependence stall, cancellation, and a closed engine. Every class
// must expose its sentinel through errors.Is and its typed detail, where
// it has one, through errors.As; ErrClosed is returned bare.
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
		{
			name: "closed",
			make: func(t *testing.T) error {
				e, err := NewEngine(coneSpec(1, width, 1, nil), Options{Workers: 1, Policy: NabbitCPolicy()})
				if err != nil {
					t.Fatal(err)
				}
				e.Close()
				_, serr := e.Submit(coneSink(0, width))
				return serr
			},
			is: []error{ErrClosed},
			as: func(err error) bool { return err == ErrClosed },
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
