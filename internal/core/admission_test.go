package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// slotBooks reads the admission books under stateMu: the slots held and
// the admissions queued for one.
func slotBooks(e *Engine) (inflight, queued int) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.inflight, len(e.slotWaiters)
}

// blockSecondSubmit admits graph 0 of a gated spec into an engine of one
// slot, then starts submit for graph 1 on a goroutine of its own and
// returns once that call has queued for the slot. The goroutine sends the
// call's error on the returned channel.
func blockSecondSubmit(t *testing.T, e *Engine, submit func() (*Ticket, error)) (*Ticket, <-chan error) {
	t.Helper()
	t1, err := e.Submit(0)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := submit()
		blocked <- err
	}()
	waitFor(t, "the second admission to queue for the slot", func() bool {
		_, queued := slotBooks(e)
		return queued == 1
	})
	return t1, blocked
}

// TestBlockedSubmitClosed: a Submit waiting for a slot returns ErrClosed as
// soon as Close begins, while the graph that holds the slot is still
// running; Close then drains that graph.
func TestBlockedSubmitClosed(t *testing.T) {
	gate := make(chan struct{})
	e := waitEngine(t, gatedSpec(2, gate), Options{Workers: 1, MaxInflight: 1})
	t1, blocked := blockSecondSubmit(t, e, func() (*Ticket, error) { return e.Submit(1) })
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked Submit returned %v, want ErrClosed", err)
	}
	if s := t1.r.state.Load(); s != runLive {
		t.Fatalf("the admitted graph's state is %d before its gate opened, want live", s)
	}
	if inflight, queued := slotBooks(e); inflight != 1 || queued != 0 {
		t.Fatalf("after the refusal: %d slots held, %d queued; want 1 and 0", inflight, queued)
	}
	close(gate)
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if inflight, queued := slotBooks(e); inflight != 0 || queued != 0 {
		t.Fatalf("closed engine: %d slots held, %d queued; want none", inflight, queued)
	}
}

// TestBlockedSubmitCtxCanceled: a SubmitCtx waiting for a slot returns
// ErrCanceled, wrapping the context's error, when its context expires, and
// leaves the slot count as it was: the slot it never got is not released,
// and the one the running graph holds comes back when that graph ends.
func TestBlockedSubmitCtxCanceled(t *testing.T) {
	gate := make(chan struct{})
	e := waitEngine(t, gatedSpec(3, gate), Options{Workers: 1, MaxInflight: 1})
	defer mustClose(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	t1, blocked := blockSecondSubmit(t, e, func() (*Ticket, error) { return e.SubmitCtx(ctx, 1) })
	cancel()
	if err := <-blocked; !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked SubmitCtx returned %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if inflight, queued := slotBooks(e); inflight != 1 || queued != 0 {
		t.Fatalf("after the cancel: %d slots held, %d queued; want 1 and 0", inflight, queued)
	}
	close(gate)
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	if inflight, _ := slotBooks(e); inflight != 0 {
		t.Fatalf("after the graph: %d slots held, want 0", inflight)
	}
	t2, err := e.Submit(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDoneBeforeAndAfterCompletion: Done asked before the graph completes
// returns one channel, open until then and closed once (a second close
// would panic); asked afterwards it returns a closed channel, also for a
// run that settled with nobody asleep on it, which had made none.
func TestDoneBeforeAndAfterCompletion(t *testing.T) {
	gate := make(chan struct{})
	e := waitEngine(t, gatedSpec(2, gate), Options{Workers: 1})
	defer mustClose(t, e)
	isClosed := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	tk, err := e.Submit(0)
	if err != nil {
		t.Fatal(err)
	}
	d := tk.Done()
	if tk.Done() != d {
		t.Fatal("two Done calls on a live run returned different channels")
	}
	if isClosed(d) {
		t.Fatal("Done is closed while the graph's only task is gated")
	}
	close(gate)
	<-d
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if !isClosed(tk.Done()) {
		t.Fatal("Done after completion returned an open channel")
	}

	tk2, err := e.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
	e.stateMu.Lock()
	made := tk2.r.done != nil
	e.stateMu.Unlock()
	if !isClosed(tk2.Done()) || !isClosed(tk2.Done()) {
		t.Fatalf("Done after completion returned an open channel (the run had made one: %v)", made)
	}
}

// TestWaitersAndDoneOneTicket: two goroutines in Wait and one asleep on
// Done, all on one ticket whose graph is gated, all return when it
// completes, and both waiters get the same stats.
func TestWaitersAndDoneOneTicket(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		gate := make(chan struct{})
		e := waitEngine(t, gatedSpec(1, gate), Options{Workers: 2})
		defer mustClose(t, e)
		tk, err := e.Submit(0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var got [2]*Stats
		var waiting atomic.Int32
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				waiting.Add(1)
				st, err := tk.Wait()
				if err != nil {
					t.Errorf("waiter %d: %v", i, err)
				}
				got[i] = st
			}()
		}
		waitFor(t, "both waiters to call Wait", func() bool { return waiting.Load() == 2 })
		d := tk.Done()
		close(gate)
		<-d
		wg.Wait()
		if got[0] == nil || got[0] != got[1] || got[0].NodesCreated != 1 {
			t.Fatalf("waiters got %+v and %+v", got[0], got[1])
		}
		checkQuiet(t, e)
	})
}

// TestSubmitCompletesInAdmissionOrder pins what the tenancy path does with
// equal graphs: on one worker, a window of two-colour cones admitted while
// the worker is held inside the first one's first leaf completes in
// admission order, as OnComplete sees the sinks.
func TestSubmitCompletesInAdmissionOrder(t *testing.T) {
	const graphs, width = 32, 16
	gate := make(chan struct{})
	var held atomic.Bool
	spec := coneSpec(graphs, width, 2, func(Key) {
		if held.CompareAndSwap(false, true) {
			<-gate
		}
	})
	var mu sync.Mutex
	var sinks []Key
	e := waitEngine(t, spec, Options{Workers: 1, MaxInflight: graphs, OnComplete: func(_ int, k Key) {
		if int(k)%(width+1) == width {
			mu.Lock()
			sinks = append(sinks, k)
			mu.Unlock()
		}
	}})
	defer mustClose(t, e)
	tks := make([]*Ticket, graphs)
	want := make([]Key, graphs)
	for g := range tks {
		want[g] = coneSink(g, width)
		tk, err := e.Submit(want[g])
		if err != nil {
			t.Fatal(err)
		}
		tks[g] = tk
		if g == 0 {
			tk.Done() // start the worker now, not at the deferred wake
			waitFor(t, "the worker to enter the first leaf", held.Load)
		}
	}
	close(gate)
	for g, tk := range tks {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(sinks, want) {
		t.Fatalf("sinks completed in order %v, want admission order %v", sinks, want)
	}
}

// TestCtxRunsStartNoGoroutine: a run admitted with a ctx watches it
// through a callback registered on the ctx, not a goroutine of its own, so
// n ctx runs held in flight behind a gated first graph leave the goroutine
// count where it was. Canceling half of the contexts still fails exactly
// those runs with ErrCanceled wrapping the context's error, and the rest
// complete once the gate opens.
func TestCtxRunsStartNoGoroutine(t *testing.T) {
	const n = 64
	gate := make(chan struct{})
	e := waitEngine(t, gatedSpec(n, gate), Options{Workers: 1, MaxInflight: n})
	defer mustClose(t, e)
	before := runtime.NumGoroutine()
	tks := make([]*Ticket, n)
	cancels := make([]context.CancelFunc, n)
	for g := range tks {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tk, err := e.SubmitCtx(ctx, Key(g))
		if err != nil {
			t.Fatal(err)
		}
		tks[g], cancels[g] = tk, cancel
	}
	if grew := runtime.NumGoroutine() - before; grew >= n/2 {
		t.Errorf("%d ctx runs in flight grew the goroutine count by %d", n, grew)
	}
	for g := 1; g < n; g += 2 {
		cancels[g]()
	}
	for g := 1; g < n; g += 2 {
		<-tks[g].Done() // failed by its ctx: the gate still holds the worker
	}
	close(gate)
	for g, tk := range tks {
		_, err := tk.Wait()
		if g%2 == 1 && (!errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled)) {
			t.Errorf("graph %d: canceled ctx run returned %v, want ErrCanceled wrapping context.Canceled", g, err)
		}
		if g%2 == 0 && err != nil {
			t.Errorf("graph %d: %v", g, err)
		}
	}
}
