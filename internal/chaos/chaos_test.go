package chaos_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nabbitc/internal/chaos"
	"nabbitc/internal/core"
)

// coneSpec mirrors the multi-tenant test workload: a forest of disjoint
// fan-in cones, graph g owning keys [g*(width+1), g*(width+1)+width],
// width leaves feeding one sink.
func coneSpec(graphs, width, workers int, compute func(core.Key)) core.FuncSpec {
	stride := width + 1
	return core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			if int(k)%stride != width {
				return nil
			}
			base := int(k) - width
			ps := make([]core.Key, width)
			for i := range ps {
				ps[i] = core.Key(base + i)
			}
			return ps
		},
		ColorFn:   func(k core.Key) int { return int(k) % workers },
		ComputeFn: compute,
		BoundFn:   func() int { return graphs * stride },
	}
}

func coneSink(g, stride int) core.Key { return core.Key(g*stride + stride - 1) }

// TestPlanDeterminism pins that a Plan is a pure function of its seed:
// identical seeds agree on every assignment, and the rate-0 plan never
// injects.
func TestPlanDeterminism(t *testing.T) {
	const graphs = 256
	a := chaos.NewPlan(42, 0.3, chaos.Panic, chaos.Delay, chaos.Cancel)
	b := chaos.NewPlan(42, 0.3, chaos.Panic, chaos.Delay, chaos.Cancel)
	c := chaos.NewPlan(43, 0.3, chaos.Panic, chaos.Delay, chaos.Cancel)
	diff := 0
	poisoned := 0
	for g := 0; g < graphs; g++ {
		if a.Fault(g) != b.Fault(g) || a.Target(g, 17) != b.Target(g, 17) {
			t.Fatalf("same seed disagrees at graph %d", g)
		}
		if a.Fault(g) != c.Fault(g) {
			diff++
		}
		if a.Fault(g) != chaos.None {
			poisoned++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical fault assignments")
	}
	// A 0.3 rate over 256 graphs should land broadly near 77.
	if poisoned < graphs/6 || poisoned > graphs/2 {
		t.Errorf("rate 0.3 poisoned %d/%d graphs", poisoned, graphs)
	}
	zero := chaos.NewPlan(42, 0, chaos.Panic)
	none := chaos.NewPlan(42, 0.5)
	for g := 0; g < graphs; g++ {
		if zero.Fault(g) != chaos.None || none.Fault(g) != chaos.None {
			t.Fatal("rate-0 / kindless plan injected a fault")
		}
	}
}

// TestValueRoundTrip pins that an injected panic's Value payload arrives
// unmodified inside the *ComputeError a poisoned Ticket reports.
func TestValueRoundTrip(t *testing.T) {
	const width, stride = 8, 9
	plan := chaos.NewPlan(7, 1, chaos.Panic)
	inj := &chaos.Injector{Plan: plan, Stride: stride}
	spec := coneSpec(1, width, 2, inj.Compute(nil))
	e, err := core.NewEngine(spec, core.Options{Workers: 2, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tk, err := e.Submit(coneSink(0, stride))
	if err != nil {
		t.Fatal(err)
	}
	_, werr := tk.Wait()
	var ce *core.ComputeError
	if !errors.As(werr, &ce) {
		t.Fatalf("poisoned Wait err = %v, want *ComputeError", werr)
	}
	want := chaos.Value{Graph: 0, Key: core.Key(plan.Target(0, stride))}
	if ce.Value != want {
		t.Fatalf("ComputeError.Value = %#v, want %#v", ce.Value, want)
	}
	if ce.Key != want.Key {
		t.Fatalf("ComputeError.Key = %d, want %d", ce.Key, want.Key)
	}
}

// TestReleasedHangSkipsBody pins the Hang fault's two shapes without any
// timing: a hang released through HangCh fails wrapping ErrInjected and
// never runs the base body (its graph is already dead by the time a test
// releases it, so a late body would race the test's census), while a
// channel-less hang is a bounded stall after which the node computes
// normally. Non-target nodes of a hang graph are untouched either way.
func TestReleasedHangSkipsBody(t *testing.T) {
	const stride = 9
	plan := chaos.NewPlan(3, 1, chaos.Hang)
	target := core.Key(plan.Target(0, stride))
	other := (target + 1) % stride
	var ran []core.Key
	base := func(k core.Key) { ran = append(ran, k) }

	released := make(chan struct{})
	close(released)
	fn := (&chaos.Injector{Plan: plan, Stride: stride, HangCh: released}).ComputeErr(base)
	if err := fn(target); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("released hang returned %v, want an error wrapping ErrInjected", err)
	}
	if len(ran) != 0 {
		t.Fatalf("released hang ran the base body for keys %v", ran)
	}
	if err := fn(other); err != nil || len(ran) != 1 || ran[0] != other {
		t.Fatalf("non-target node: err = %v, body ran for %v, want nil and [%d]", err, ran, other)
	}

	ran = ran[:0]
	fn = (&chaos.Injector{Plan: plan, Stride: stride, HangDur: time.Nanosecond}).ComputeErr(base)
	if err := fn(target); err != nil || len(ran) != 1 || ran[0] != target {
		t.Fatalf("timed hang: err = %v, body ran for %v, want nil and [%d]", err, ran, target)
	}
}

// TestTransientChaos is the -race recovery workout for the retry-era
// fault kinds: a seeded plan poisons concurrently submitted graphs with
// transient failures (recover under MaxAttempts > TransientFails),
// permanent errors (exhaust the budget into *ComputeError wrapping
// ErrInjected), and hangs (killed by the NodeTimeout watchdog into
// *TimeoutError). Recovered and healthy graphs complete exactly-once,
// Stats.Retries ledgers exactly the injected transient failures, and
// the engine stays reusable.
func TestTransientChaos(t *testing.T) {
	const (
		graphs  = 32
		width   = 16
		stride  = width + 1
		workers = 4
		seed    = 0xBAD0001
		rate    = 0.5
	)
	plan := chaos.NewPlan(seed, rate, chaos.Transient, chaos.Error, chaos.Hang)
	kindCount := map[chaos.Kind]int{}
	for g := 0; g < graphs; g++ {
		kindCount[plan.Fault(g)]++
	}
	for _, k := range []chaos.Kind{chaos.None, chaos.Transient, chaos.Error, chaos.Hang} {
		if kindCount[k] == 0 {
			t.Fatalf("seed %#x assigns no %v graphs — pick a seed covering all kinds", seed, k)
		}
	}
	// Every hang target must get a worker so its watchdog can fire: with
	// a hang occupying its worker until released, that needs fewer hang
	// graphs than workers.
	if kindCount[chaos.Hang] >= workers {
		t.Fatalf("seed %#x assigns %d hang graphs, want < %d workers", seed, kindCount[chaos.Hang], workers)
	}

	counts := make([]atomic.Int32, graphs*stride)
	hangCh := make(chan struct{})
	inj := &chaos.Injector{Plan: plan, Stride: stride, HangCh: hangCh}
	spec := coneSpec(graphs, width, workers, nil)
	spec.ComputeErrFn = inj.ComputeErr(func(k core.Key) {
		counts[int(k)].Add(1)
	})
	e, err := core.NewEngine(spec, core.Options{
		Workers: workers, Policy: core.NabbitCPolicy(), MaxInflight: 16,
		Retry:       core.RetryPolicy{MaxAttempts: chaos.DefaultTransientFails + 1, BaseBackoff: 100 * time.Microsecond, Multiplier: 2, Jitter: 0.5},
		NodeTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(hangCh) })
	defer e.Close()
	defer release() // LIFO: free stuck workers before Close drains

	tickets := make([]*core.Ticket, graphs)
	for g := 0; g < graphs; g++ {
		if tickets[g], err = e.Submit(coneSink(g, stride)); err != nil {
			t.Fatalf("submit graph %d: %v", g, err)
		}
	}
	// Hang graphs first: the watchdog fails each from the monitor
	// goroutine even while the stuck computes pin their workers. Only
	// then release the hangs — the late returns (errors, the body never
	// runs: see TestReleasedHangSkipsBody) land on dead runs and are
	// dropped.
	for g := 0; g < graphs; g++ {
		if plan.Fault(g) != chaos.Hang {
			continue
		}
		_, werr := tickets[g].Wait()
		var te *core.TimeoutError
		if !errors.As(werr, &te) || !te.Node {
			t.Fatalf("hang graph %d: err = %v, want node-level *TimeoutError", g, werr)
		}
	}
	release()
	var retries int64
	for g := 0; g < graphs; g++ {
		if plan.Fault(g) == chaos.Hang {
			continue
		}
		st, werr := tickets[g].Wait()
		switch plan.Fault(g) {
		case chaos.Error:
			var ce *core.ComputeError
			if !errors.As(werr, &ce) || !errors.Is(werr, chaos.ErrInjected) {
				t.Fatalf("error graph %d: err = %v, want *ComputeError wrapping ErrInjected", g, werr)
			}
			if want := core.Key(g*stride + plan.Target(g, stride)); ce.Key != want {
				t.Fatalf("error graph %d: ComputeError.Key = %d, want %d", g, ce.Key, want)
			}
		default:
			if werr != nil {
				t.Fatalf("%v graph %d failed: %v", plan.Fault(g), g, werr)
			}
			retries += st.Retries
		}
	}
	// Every transient graph retried exactly TransientFails times; nothing
	// else retried.
	var wantRetries int64
	for g := 0; g < graphs; g++ {
		if plan.Fault(g) == chaos.Transient {
			wantRetries += chaos.DefaultTransientFails
		}
	}
	if retries != wantRetries {
		t.Fatalf("Stats.Retries total = %d, want %d", retries, wantRetries)
	}
	for g := 0; g < graphs; g++ {
		target := g*stride + plan.Target(g, stride)
		for k := g * stride; k < (g+1)*stride; k++ {
			c := counts[k].Load()
			switch plan.Fault(g) {
			case chaos.None, chaos.Transient:
				// Failed transient attempts return before the base body.
				if c != 1 {
					t.Fatalf("%v graph %d key %d computed %d times, want 1", plan.Fault(g), g, k, c)
				}
			case chaos.Error, chaos.Hang:
				if c > 1 || (k == target && c != 0) {
					t.Fatalf("%v graph %d key %d computed %d times", plan.Fault(g), g, k, c)
				}
			}
		}
	}
	// Reusable after the carnage: transient budgets are spent, so a
	// formerly-transient graph now runs clean.
	for g := 0; g < graphs; g++ {
		if plan.Fault(g) == chaos.Transient {
			st, err := e.Execute(coneSink(g, stride))
			if err != nil {
				t.Fatalf("Execute after transient chaos: %v", err)
			}
			if st.Retries != 0 {
				t.Fatalf("post-chaos Execute Retries = %d, want 0", st.Retries)
			}
			break
		}
	}
}

// TestChaosStress is the -race chaos workout: with the bound declared
// and hidden, a seeded plan poisons roughly
// half of 48 concurrently submitted graphs with panics, delays, and
// mid-compute cancellations. Healthy (and delayed) graphs must complete
// exactly-once, panic graphs must report *ComputeError with the exact
// injected payload, canceled graphs must either finish cleanly or
// report ErrCanceled — and the engine must stay reusable afterwards.
func TestChaosStress(t *testing.T) {
	const (
		graphs     = 48
		width      = 16
		stride     = width + 1
		workers    = 4
		submitters = 4
		seed       = 0xC0FFEE
		rate       = 0.5
	)
	// The two slot rules: "dense" runs the cone forest with its bound
	// declared, "unbounded" with it hidden, every key its own slot.
	tables := []struct {
		name string
		hide bool
	}{{"dense", false}, {"unbounded", true}}

	plan := chaos.NewPlan(seed, rate, chaos.Panic, chaos.Delay, chaos.Cancel)
	kindCount := map[chaos.Kind]int{}
	for g := 0; g < graphs; g++ {
		kindCount[plan.Fault(g)]++
	}
	for _, k := range []chaos.Kind{chaos.None, chaos.Panic, chaos.Delay, chaos.Cancel} {
		if kindCount[k] == 0 {
			t.Fatalf("seed %#x assigns no %v graphs — pick a seed covering all kinds", seed, k)
		}
	}

	for _, tb := range tables {
		t.Run("mutex/"+tb.name, func(t *testing.T) {
			counts := make([]atomic.Int32, graphs*stride)
			cancels := make([]context.CancelFunc, graphs)
			inj := &chaos.Injector{
				Plan:     plan,
				Stride:   stride,
				OnCancel: func(g int) { cancels[g]() },
			}
			spec := coneSpec(graphs, width, workers, inj.Compute(func(k core.Key) {
				counts[int(k)].Add(1)
			}))
			if tb.hide {
				spec.BoundFn = nil
			}
			e, err := core.NewEngine(spec, core.Options{
				Workers: workers, Policy: core.NabbitCPolicy(), MaxInflight: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			tickets := make([]*core.Ticket, graphs)
			serrs := make([]error, graphs)
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for g := s; g < graphs; g += submitters {
						if plan.Fault(g) == chaos.Cancel {
							ctx, cancel := context.WithCancel(context.Background())
							defer cancel()
							cancels[g] = cancel
							tickets[g], serrs[g] = e.SubmitCtx(ctx, coneSink(g, stride))
							continue
						}
						tickets[g], serrs[g] = e.Submit(coneSink(g, stride))
					}
				}(s)
			}
			wg.Wait()

			for g := 0; g < graphs; g++ {
				if serrs[g] != nil {
					t.Fatalf("submit graph %d: %v", g, serrs[g])
				}
				_, werr := tickets[g].Wait()
				switch plan.Fault(g) {
				case chaos.Panic:
					var ce *core.ComputeError
					if !errors.As(werr, &ce) {
						t.Fatalf("panic graph %d: err = %v, want *ComputeError", g, werr)
					}
					want := chaos.Value{Graph: g, Key: core.Key(g*stride + plan.Target(g, stride))}
					if ce.Value != want {
						t.Fatalf("panic graph %d: Value = %#v, want %#v", g, ce.Value, want)
					}
				case chaos.Cancel:
					// The cancel races the sink: finishing first is
					// legitimate, but any failure must be the typed one.
					if werr != nil && !errors.Is(werr, core.ErrCanceled) {
						t.Fatalf("cancel graph %d: err = %v, want nil or ErrCanceled", g, werr)
					}
				default:
					if werr != nil {
						t.Fatalf("%v graph %d failed: %v", plan.Fault(g), g, werr)
					}
				}
			}

			for g := 0; g < graphs; g++ {
				target := g*stride + plan.Target(g, stride)
				for k := g * stride; k < (g+1)*stride; k++ {
					c := counts[k].Load()
					switch plan.Fault(g) {
					case chaos.None, chaos.Delay:
						if c != 1 {
							t.Fatalf("%v graph %d key %d computed %d times, want 1", plan.Fault(g), g, k, c)
						}
					case chaos.Panic:
						if c > 1 || (k == target && c != 0) {
							t.Fatalf("panic graph %d key %d computed %d times", g, k, c)
						}
					case chaos.Cancel:
						if c > 1 {
							t.Fatalf("cancel graph %d key %d computed %d times", g, k, c)
						}
					}
				}
			}

			// The engine must serve new graphs after the carnage.
			healthy := -1
			for g := 0; g < graphs; g++ {
				if plan.Fault(g) == chaos.None {
					healthy = g
					break
				}
			}
			st, err := e.Execute(coneSink(healthy, stride))
			if err != nil {
				t.Fatalf("Execute after chaos: %v", err)
			}
			if st.NodesCreated != stride {
				t.Fatalf("post-chaos NodesCreated = %d, want %d", st.NodesCreated, stride)
			}
		})
	}
}
