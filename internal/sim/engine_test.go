package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"nabbitc/internal/core"
	"nabbitc/internal/deque"
	"nabbitc/internal/xrand"
)

// A deque entry — item plus colour mask — must stay within 64 bytes: the
// compiler moves a value that size inline, and a larger one through a
// runtime copy routine on every push, pop and steal.
func TestEntryLayout(t *testing.T) {
	if sz := unsafe.Sizeof(deque.Entry[item]{}); sz > 64 {
		t.Errorf("deque.Entry[item] is %d bytes, want <= 64", sz)
	}
}

// Property: whatever mix of probe and completion pushes the queue is fed —
// probe times out of order, ties on the time, the fast-forward point one
// past the earliest completion — it pops in the order of a stable sort by
// time, i.e. by (at, seq). The reference keeps the pending events in push
// order and takes the first with the smallest time; it never looks at seq.
func TestEventQueueOrder(t *testing.T) {
	type pending struct {
		at   int64
		wid  int
		kind eventKind
	}
	f := func(seed uint64, workersRaw uint8) bool {
		workers := int(workersRaw)%40 + 1
		r := xrand.New(seed)
		q := newEventQueue(workers)
		var ref []pending
		probes, comps := 0, 0
		now := int64(0)
		for step := 0; step < 400; step++ {
			switch op := r.Intn(5); {
			case op < 2 && probes < workers:
				at := now + int64(r.Intn(4)*r.Intn(60)) // often a tie with now
				if c, busy := q.earliestCompletion(); busy && r.Intn(3) == 0 {
					at = c + 1 // the fast-forward point
				}
				wid := r.Intn(workers)
				q.pushProbe(at, wid)
				ref = append(ref, pending{at, wid, evSteal})
				probes++
			case op == 2 && comps < workers:
				at := now + int64(r.Intn(200))
				wid := r.Intn(workers)
				q.pushComplete(at, wid)
				ref = append(ref, pending{at, wid, evComplete})
				comps++
			default:
				ev, kind, ok := q.pop()
				if !ok {
					if len(ref) != 0 {
						t.Logf("seed %d: queue empty with %d events pending", seed, len(ref))
						return false
					}
					continue
				}
				first := 0
				for i, p := range ref {
					if p.at < ref[first].at {
						first = i
					}
				}
				want := ref[first]
				ref = slices.Delete(ref, first, first+1)
				if got := (pending{ev.at, int(ev.wid), kind}); got != want {
					t.Logf("seed %d step %d: popped %+v, want %+v", seed, step, got, want)
					return false
				}
				if kind == evSteal {
					probes--
				} else {
					comps--
				}
				now = ev.at
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// audit checks the books the event loop relies on instead of recounting:
// queued is the number of entries in all deques, no worker has more than
// one pending event, every pending completion belongs to an executing
// worker and every executing worker has one, and the queue's O(1) answers
// (next probe, earliest completion) are what a scan of it finds.
func (e *engine) audit() error {
	queued, running := 0, 0
	for i := range e.workers {
		queued += e.workers[i].dq.Len()
		if e.workers[i].running != nil {
			running++
		}
	}
	if queued != e.queued {
		return fmt.Errorf("queued = %d, deques hold %d", e.queued, queued)
	}
	q := &e.evq
	pending := make([]int, len(e.workers))
	for i := q.head; i != q.tail; i++ {
		ev := q.probes[i&q.mask]
		pending[ev.wid]++
		if i != q.head && ev.before(q.probes[(i-1)&q.mask]) {
			return fmt.Errorf("probe ring out of order at %d", i-q.head)
		}
	}
	if len(q.comps) != running {
		return fmt.Errorf("%d pending completions, %d workers executing", len(q.comps), running)
	}
	earliest, busy := q.earliestCompletion()
	if busy != (running > 0) {
		return fmt.Errorf("earliestCompletion busy = %v with %d workers executing", busy, running)
	}
	for _, ev := range q.comps {
		pending[ev.wid]++
		if e.workers[ev.wid].running == nil {
			return fmt.Errorf("pending completion for idle worker %d", ev.wid)
		}
		if ev.at < earliest {
			return fmt.Errorf("earliestCompletion = %d, worker %d completes at %d", earliest, ev.wid, ev.at)
		}
	}
	for wid, n := range pending {
		if n > 1 {
			return fmt.Errorf("worker %d has %d pending events", wid, n)
		}
	}
	return nil
}

// The audit holds at every task completion of the random DAGs the quick
// properties draw, sparse and dense, under all three policies.
func TestEngineBooksBalance(t *testing.T) {
	f := func(seed uint64, layersRaw, widthRaw, workersRaw uint8) bool {
		layers := int(layersRaw)%5 + 2
		width := int(widthRaw)%10 + 1
		workers := int(workersRaw)%20 + 1
		spec, sink := randomDAG(seed, layers, width, workers)
		if seed%2 == 0 {
			spec, sink = randomDenseDAG(seed, layers, width, workers)
		}
		for pi, opts := range quickPolicies(workers, seed) {
			e, err := newEngine(spec, sink, opts)
			if err != nil {
				t.Log(err)
				return false
			}
			var bad error
			e.opts.OnComplete = func(vt int64, _ int, k core.Key) {
				if err := e.audit(); err != nil && bad == nil {
					bad = fmt.Errorf("at t=%d, task %d: %w", vt, k, err)
				}
			}
			if _, err := e.run(); err != nil {
				bad = err
			}
			if bad != nil {
				t.Logf("seed %d policy %d: %v", seed, pi, bad)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// A task that names a predecessor twice is registered on it twice and turns
// ready at its last registration, so the order ready successors are handed
// on in is the order of a forward walk over the registrations, not of their
// first appearance. Here worker 0 executes the slow leaf 0 while worker 1
// registers B, then A's second edge, behind A's first: the walk readies B
// before A.
func TestNotifyWalksRegistrationsInOrder(t *testing.T) {
	const leaf, a, b, sink = 0, 1, 2, 3
	preds := map[core.Key][]core.Key{a: {leaf, leaf}, b: {leaf}, sink: {a, b}}
	spec := core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key { return preds[k] },
		ColorFn: func(core.Key) int { return 0 },
		FootprintFn: func(k core.Key) core.Footprint {
			if k == leaf {
				return core.Footprint{Compute: 1_000_000}
			}
			return core.Footprint{Compute: 10}
		},
	}
	sched, _ := runSchedule(t, spec, sink, Options{Workers: 2, Policy: core.NabbitPolicy()})
	var order []core.Key
	for _, c := range sched {
		order = append(order, c.k)
	}
	if want := []core.Key{leaf, b, a, sink}; !slices.Equal(order, want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
}
