package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// coneSpec is a forest of disjoint fan-in cones: graph g owns the key
// range [g*(width+1), g*(width+1)+width], with width leaf tasks feeding
// one sink. Submitting many cone sinks exercises true multi-tenancy —
// every in-flight graph touches only its own keys, so exactly-once
// violations (a task computed by two graphs' bookkeeping, a leaked item)
// are directly observable per key.
func coneSpec(graphs, width, workers int, compute func(Key)) FuncSpec {
	stride := width + 1
	return FuncSpec{
		PredsFn: func(k Key) []Key {
			if int(k)%stride != width {
				return nil
			}
			base := int(k) - width
			ps := make([]Key, width)
			for i := range ps {
				ps[i] = Key(base + i)
			}
			return ps
		},
		ColorFn:   func(k Key) int { return int(k) % workers },
		ComputeFn: compute,
		BoundFn:   func() int { return graphs * stride },
	}
}

func coneSink(g, width int) Key { return Key(g*(width+1) + width) }

// TestSubmitConcurrentGraphs pins the tentpole acceptance property: at
// least 64 concurrently submitted graphs complete correctly on one
// engine — every task of every graph computed exactly once — and the
// engine remains usable afterwards.
func TestSubmitConcurrentGraphs(t *testing.T) {
	const graphs, width, workers, submitters = 64, 32, 8, 8
	stride := width + 1
	counts := make([]atomic.Int32, graphs*stride)
	spec := coneSpec(graphs, width, workers, func(k Key) {
		counts[int(k)].Add(1)
	})
	e, err := NewEngine(spec, Options{
		Workers: workers, Policy: NabbitCPolicy(), MaxInflight: graphs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	tickets := make([]*Ticket, graphs)
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for g := s; g < graphs; g += submitters {
				tk, err := e.Submit(coneSink(g, width))
				if err != nil {
					t.Errorf("submit graph %d: %v", g, err)
					return
				}
				tickets[g] = tk
			}
		}(s)
	}
	wg.Wait()

	seenIDs := make(map[uint64]bool)
	for g, tk := range tickets {
		if tk == nil {
			t.Fatalf("graph %d never submitted", g)
		}
		st, err := tk.Wait()
		if err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		if st.NodesCreated != stride {
			t.Errorf("graph %d: NodesCreated = %d, want %d", g, st.NodesCreated, stride)
		}
		if st.Workers != nil {
			t.Errorf("graph %d: Submit stats must not carry per-worker counters", g)
		}
		if seenIDs[st.GraphID] {
			t.Errorf("graph %d: duplicate GraphID %d", g, st.GraphID)
		}
		seenIDs[st.GraphID] = true
	}
	for k := range counts {
		if n := counts[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly once", k, n)
		}
	}

	// The engine must remain usable in single-tenant mode afterwards.
	st, err := e.Execute(coneSink(0, width))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.TotalNodes(); got != int64(stride) {
		t.Errorf("Execute after Submit burst: TotalNodes = %d, want %d", got, stride)
	}
}

// TestConcurrentExecuteHammer pins the documented guarantee that
// concurrent Execute calls are safe (they serialize internally): many
// goroutines hammer one engine under -race and every run is complete
// and correctly attributed.
func TestConcurrentExecuteHammer(t *testing.T) {
	const n, workers, goroutines, rounds = 64, 4, 8, 5
	spec := flatFanInSpec(n, workers, nil)
	e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				st, err := e.Execute(Key(n))
				if err != nil {
					t.Errorf("Execute: %v", err)
					return
				}
				if st.TotalNodes() != n+1 || st.NodesCreated != n+1 {
					t.Errorf("Execute: TotalNodes=%d NodesCreated=%d, want %d",
						st.TotalNodes(), st.NodesCreated, n+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// gatedSpec is a set of independent single-task graphs whose computes
// block on a gate channel — admission-control tests use it to hold
// graphs in flight deterministically.
func gatedSpec(graphs int, gate <-chan struct{}) FuncSpec {
	return FuncSpec{
		PredsFn:   func(Key) []Key { return nil },
		ColorFn:   func(Key) int { return 0 },
		ComputeFn: func(Key) { <-gate },
		BoundFn:   func() int { return graphs },
	}
}

// TestSubmitSaturation pins admission at every MaxInflight: with the
// admitted graphs' computes gated shut, exactly MaxInflight of the offered
// graphs' Submits return and every further one blocks; once the gate opens
// every admitted graph drains, and the freed slots admit every blocked
// graph, which then completes.
func TestSubmitSaturation(t *testing.T) {
	const offered = 9
	for _, inflight := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("inflight-%d", inflight), func(t *testing.T) {
			gate := make(chan struct{})
			e, err := NewEngine(gatedSpec(offered, gate), Options{
				Workers: 2, Policy: NabbitCPolicy(), MaxInflight: inflight,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			// A failed Submit sends a nil Ticket; the test reports it, not
			// the goroutine, which may outlive a failed test.
			returned := make(chan *Ticket, offered)
			for g := 0; g < offered; g++ {
				go func() {
					tk, _ := e.Submit(Key(g))
					returned <- tk
				}()
			}
			var admitted []*Ticket
			for len(admitted) < inflight {
				select {
				case tk := <-returned:
					admitted = append(admitted, tk)
				case <-time.After(5 * time.Second):
					close(gate)
					t.Fatalf("%d of %d Submits returned with free slots, want %d",
						len(admitted), offered, inflight)
				}
			}
			select {
			case <-returned:
				close(gate)
				t.Fatalf("more than %d Submits returned while every slot was held", inflight)
			case <-time.After(20 * time.Millisecond):
			}

			close(gate)
			for len(admitted) < offered {
				admitted = append(admitted, <-returned)
			}
			for g, tk := range admitted {
				if tk == nil {
					t.Fatalf("graph %d: Submit failed", g)
				}
				st, err := tk.Wait()
				if err != nil {
					t.Fatalf("wait %d: %v", g, err)
				}
				if st.NodesCreated != 1 {
					t.Errorf("graph %d: NodesCreated = %d, want 1", g, st.NodesCreated)
				}
			}
		})
	}
}

// TestSubmitBackpressureBlocks pins blocking admission: a Submit beyond
// MaxInflight blocks until a slot frees, then completes.
func TestSubmitBackpressureBlocks(t *testing.T) {
	gate := make(chan struct{})
	e, err := NewEngine(gatedSpec(2, gate), Options{
		Workers: 1, Policy: NabbitCPolicy(), MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	t1, err := e.Submit(0)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan *Ticket)
	go func() {
		t2, err := e.Submit(1)
		if err != nil {
			t.Errorf("blocked submit: %v", err)
		}
		blocked <- t2
	}()
	select {
	case <-blocked:
		t.Fatal("Submit beyond MaxInflight returned while the slot was held")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	t2 := <-blocked
	if t2 == nil {
		t.Fatal("blocked Submit failed")
	}
	if _, err := t2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// failoverSpec is a graph family with one healthy fan-in cone (sink
// goodSink, preds 0..n-1) and one poisoned cone whose sink depends on a
// two-node cycle, so it can never compute.
const (
	failoverLeaves   = 64
	failoverGoodSink = Key(failoverLeaves)
	failoverCycA     = Key(failoverLeaves + 1)
	failoverCycB     = Key(failoverLeaves + 2)
	failoverBadSink  = Key(failoverLeaves + 3)
)

func failoverSpec(compute func(Key)) FuncSpec {
	return FuncSpec{
		PredsFn: func(k Key) []Key {
			switch k {
			case failoverGoodSink:
				ps := make([]Key, failoverLeaves)
				for i := range ps {
					ps[i] = Key(i)
				}
				return ps
			case failoverCycA:
				return []Key{failoverCycB}
			case failoverCycB:
				return []Key{failoverCycA}
			case failoverBadSink:
				return []Key{failoverCycA}
			}
			return nil
		},
		ColorFn:   func(k Key) int { return 0 },
		ComputeFn: compute,
		BoundFn:   func() int { return int(failoverBadSink) + 1 },
	}
}

// TestExecuteAfterFailedRun pins engine reuse after a failed run: a
// graph whose sink can never compute (cycle) errors out instead of
// hanging, and the next Execute and Submit on the same engine produce a
// schedule byte-identical to a fresh engine's, with clean stats.
func TestExecuteAfterFailedRun(t *testing.T) {
	type step struct {
		w int
		k Key
	}
	var mu sync.Mutex
	var sched []step
	record := func(w int, k Key) {
		mu.Lock()
		sched = append(sched, step{w, k})
		mu.Unlock()
	}
	take := func() []step {
		mu.Lock()
		defer mu.Unlock()
		s := sched
		sched = nil
		return s
	}
	opts := Options{Workers: 1, Policy: NabbitCPolicy(), OnComplete: record}

	e, err := NewEngine(failoverSpec(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.Execute(failoverBadSink); err == nil {
		t.Fatal("Execute of an uncomputable sink must error")
	} else {
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("stalled run error = %v, want errors.Is(err, ErrStalled)", err)
		}
		var se *StallError
		if !errors.As(err, &se) {
			t.Fatalf("stalled run error %T does not unwrap to *StallError", err)
		}
		// The cycle members and the sink above them never computed.
		want := []Key{failoverCycA, failoverCycB, failoverBadSink}
		if se.Sink != failoverBadSink || se.PendingTotal != len(want) ||
			!slices.Equal(se.Pending, want) {
			t.Fatalf("stall diagnostics = sink %d pending %v (total %d), want sink %d pending %v",
				se.Sink, se.Pending, se.PendingTotal, failoverBadSink, want)
		}
	}
	take()

	st, err := e.Execute(failoverGoodSink)
	if err != nil {
		t.Fatalf("Execute after failed run: %v", err)
	}
	if st.TotalNodes() != failoverLeaves+1 || st.NodesCreated != failoverLeaves+1 {
		t.Errorf("post-failure stats: TotalNodes=%d NodesCreated=%d, want %d",
			st.TotalNodes(), st.NodesCreated, failoverLeaves+1)
	}
	reused := take()

	fresh, err := NewEngine(failoverSpec(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Execute(failoverGoodSink); err != nil {
		t.Fatal(err)
	}
	want := take()

	if len(reused) != len(want) {
		t.Fatalf("schedule length after failed run: %d, want %d", len(reused), len(want))
	}
	for i := range want {
		if reused[i] != want[i] {
			t.Fatalf("schedule diverges at step %d after a failed run: %v, want %v",
				i, reused[i], want[i])
		}
	}

	// Submit on the previously failed engine must also run clean.
	tk, err := e.Submit(failoverGoodSink)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sst.NodesCreated != failoverLeaves+1 {
		t.Errorf("Submit after failed run: NodesCreated = %d, want %d",
			sst.NodesCreated, failoverLeaves+1)
	}
}

// deepChainSpec is an unbounded (raw-key slots, default deque capacity) graph
// that drives one worker's deque depth to ~links: chain link i depends
// on link i-1 and a private side leaf, so the depth-first descent pushes
// one side item per level before anything pops. badSink additionally
// depends on a two-node cycle, giving a failed run that performs the
// same deep exploration first.
const (
	chainLinks    = 200
	chainSideBase = 1000
	chainCycA     = Key(2001)
	chainCycB     = Key(2002)
	chainBadSink  = Key(3000)
	chainGoodSink = Key(chainLinks - 1)
)

func deepChainSpec() FuncSpec {
	return FuncSpec{
		PredsFn: func(k Key) []Key {
			switch {
			case k == chainBadSink:
				return []Key{chainGoodSink, chainCycA}
			case k == chainCycA:
				return []Key{chainCycB}
			case k == chainCycB:
				return []Key{chainCycA}
			case k > 0 && k < chainLinks:
				return []Key{k - 1, Key(chainSideBase + int(k))}
			}
			return nil
		},
		ColorFn:   func(Key) int { return 0 },
		ComputeFn: func(Key) {},
		// No BoundFn: raw-key slots, default 64-entry deques, so the
		// ~200-deep frontier must grow the deque.
	}
}

// TestFailedRunDoesNotCorruptDequeGrows is the regression test for the
// lastGrows bug: the failed-run error return used to skip the per-worker
// grows bookkeeping, so a failed run's deque growths were misattributed
// to the next successful run's DequeGrows.
func TestFailedRunDoesNotCorruptDequeGrows(t *testing.T) {
	opts := Options{Workers: 1, Policy: NabbitCPolicy()}

	// Sanity: this workload really does grow a cold deque, otherwise the
	// regression below would pass vacuously.
	cold, err := NewEngine(deepChainSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	st, err := cold.Execute(chainGoodSink)
	if err != nil {
		t.Fatal(err)
	}
	if st.DequeGrows() == 0 {
		t.Fatal("deep chain did not grow a cold deque; regression test is vacuous")
	}

	// The failed run performs the same deep exploration (growing the
	// deque) before stalling on the cycle. Its growths must not leak
	// into the next run's DequeGrows.
	e, err := NewEngine(deepChainSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Execute(chainBadSink); err == nil {
		t.Fatal("Execute of the poisoned sink must error")
	}
	st, err = e.Execute(chainGoodSink)
	if err != nil {
		t.Fatal(err)
	}
	if g := st.DequeGrows(); g != 0 {
		t.Errorf("DequeGrows after a failed run = %d, want 0 (failed run's growths leaked)", g)
	}
}

// TestSubmitCloseSemantics pins the Submit-side lifecycle: Submit after
// Close errors, and Close drains stalled submissions instead of hanging.
func TestSubmitCloseSemantics(t *testing.T) {
	e, err := NewEngine(failoverSpec(nil), Options{Workers: 2, Policy: NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := e.Submit(failoverBadSink) // can never compute
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil {
		t.Error("stalled submission must fail, not complete")
	}
	if _, err := e.Submit(failoverGoodSink); err == nil {
		t.Error("Submit after Close must error")
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close must stay idempotent: %v", err)
	}
}

// TestSubmitInterleavesFairly drives more graphs than MaxInflight
// through a busy engine and checks the FIFO admission order: every
// submission completes, and a graph submitted first is never starved
// behind the whole batch submitted after it.
func TestSubmitInterleavesFairly(t *testing.T) {
	const graphs, width, workers = 128, 16, 4
	stride := width + 1
	var computed atomic.Int64
	spec := coneSpec(graphs, width, workers, func(Key) { computed.Add(1) })
	e, err := NewEngine(spec, Options{
		Workers: workers, Policy: NabbitCPolicy(), MaxInflight: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tickets := make([]*Ticket, graphs)
	for g := range tickets {
		tk, err := e.Submit(coneSink(g, width)) // blocks at the inflight bound
		if err != nil {
			t.Fatalf("submit %d: %v", g, err)
		}
		tickets[g] = tk
	}
	for g, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
	}
	if got := computed.Load(); got != graphs*int64(stride) {
		t.Errorf("computed %d tasks, want %d", got, graphs*int64(stride))
	}
}
