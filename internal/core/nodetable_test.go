package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// boundedChainSpec is a dense chain 0 <- 1 <- ... <- n-1 declaring its
// bound.
func boundedChainSpec(n int, rec *recorder) (FuncSpec, Key) {
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			if k == 0 {
				return nil
			}
			return []Key{k - 1}
		},
		ColorFn: func(k Key) int { return int(k) % 4 },
		BoundFn: func() int { return n },
	}
	if rec != nil {
		spec.ComputeFn = rec.record
	}
	return spec, Key(n - 1)
}

func TestKeyBoundOf(t *testing.T) {
	spec, _ := boundedChainSpec(100, nil)
	if got := KeyBoundOf(spec); got != 100 {
		t.Fatalf("KeyBoundOf(bounded) = %d, want 100", got)
	}
	if got := KeyBoundOf(FuncSpec{}); got != 0 {
		t.Fatalf("KeyBoundOf(unbounded) = %d, want 0", got)
	}
	neg := FuncSpec{BoundFn: func() int { return -5 }}
	if got := KeyBoundOf(neg); got != 0 {
		t.Fatalf("KeyBoundOf(negative) = %d, want 0", got)
	}
	// Recoloring must not lose the bound (the ablations wrap every spec).
	rec := Recolored{Spec: spec, ColorFn: func(Key) int { return 0 }}
	if got := KeyBoundOf(rec); got != 100 {
		t.Fatalf("KeyBoundOf(Recolored) = %d, want 100", got)
	}
}

// TestHomeMajorLayout checks the arena's layout contract: slots sorted by
// home, stable by key within a home, out-of-range homes in one trailing
// bucket, and index a bijection.
func TestHomeMajorLayout(t *testing.T) {
	const bound, workers = 64, 4
	home := func(k Key) int {
		switch {
		case int(k)%7 == 0:
			return -1 // invalid-coloring style
		case int(k)%11 == 0:
			return workers + 3 // out of range high
		default:
			return int(k) % workers
		}
	}
	idx := HomeMajorIndex(bound, workers, home)
	if len(idx) != bound {
		t.Fatalf("index length %d, want %d", len(idx), bound)
	}
	seen := make([]bool, bound)
	for _, s := range idx {
		if s < 0 || int(s) >= bound {
			t.Fatalf("slot %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("slot %d assigned twice", s)
		}
		seen[s] = true
	}
	// Reconstruct the slot order and verify home-major, key-stable.
	keyAt := make([]Key, bound)
	for k, s := range idx {
		keyAt[s] = Key(k)
	}
	bucket := func(k Key) int {
		if h := home(k); h >= 0 && h < workers {
			return h
		}
		return workers
	}
	for s := 1; s < bound; s++ {
		b0, b1 := bucket(keyAt[s-1]), bucket(keyAt[s])
		if b0 > b1 {
			t.Fatalf("slot %d (home bucket %d) after slot %d (bucket %d): not home-major",
				s, b1, s-1, b0)
		}
		if b0 == b1 && keyAt[s-1] >= keyAt[s] {
			t.Fatalf("keys %d, %d not ascending within home bucket %d",
				keyAt[s-1], keyAt[s], b0)
		}
	}

	// The key records must agree with the index, and a created node must
	// land in its slot with key/color/home filled in.
	spec := FuncSpec{ColorFn: func(k Key) int { return home(k) }}
	a := testArena(spec, workers, bound)
	for k := 0; k < bound; k++ {
		if got := a.sv.recs[k]; got.slot != idx[k] || int(got.color) != home(Key(k)) {
			t.Fatalf("key %d recorded as slot=%d color=%d, want slot=%d color=%d",
				k, got.slot, got.color, idx[k], home(Key(k)))
		}
		n, _ := a.getOrCreate(Key(k), 0, nil)
		if pg := a.dir[idx[k]>>pageShift].Load(); n != &pg[idx[k]&pageMask] {
			t.Fatalf("key %d not created in slot %d", k, idx[k])
		}
		if n.key != Key(k) || n.Home() != home(Key(k)) || n.Color() != home(Key(k)) {
			t.Fatalf("node for key %d filled as key=%d color=%d home=%d",
				k, n.key, n.color, n.home)
		}
	}
}

// TestArenaGetOrCreateRace hammers concurrent create-or-get over the
// lifecycle word: every key must be created exactly once, and every
// returned node must already be fully initialized (run with -race).
func TestArenaGetOrCreateRace(t *testing.T) {
	const bound = 512
	const goroutines = 8
	spec := FuncSpec{
		PredsFn: func(k Key) []Key {
			ps := make([]Key, int(k)%3)
			for i := range ps {
				ps[i] = Key(i)
			}
			return ps
		},
		ColorFn: func(k Key) int { return int(k) % goroutines },
		BoundFn: func() int { return bound },
	}
	for round := 0; round < 10; round++ {
		a := testArena(spec, goroutines, bound)
		var created atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < bound*4; i++ {
					k := Key((i*7 + g*13) % bound)
					n, isNew := a.getOrCreate(k, g, nil)
					if isNew {
						created.Add(1)
					}
					if n.key != k {
						t.Errorf("key %d resolved to node with key %d", k, n.key)
						return
					}
					// The node must be published fully initialized.
					if got := len(n.Preds()); got != int(k)%3 {
						t.Errorf("key %d observed %d preds, want %d", k, got, int(k)%3)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if created.Load() != bound {
			t.Fatalf("round %d: %d creations for %d keys", round, created.Load(), bound)
		}
		if a.count() != bound {
			t.Fatalf("round %d: count = %d, want %d", round, a.count(), bound)
		}
	}
}

// TestNotifyLifecycleRace races addSuccessor against markComputed: every
// successor must be accounted exactly once — either registered (and then
// returned by markComputed) or refused (and accounted by its caller).
func TestNotifyLifecycleRace(t *testing.T) {
	const goroutines = 8
	for round := 0; round < 200; round++ {
		pred := &Node{}
		pred.state.Store(nodeReady)
		succs := make([]*Node, goroutines)
		for i := range succs {
			succs[i] = &Node{}
			succs[i].state.Store(nodeReady)
			atomic.StoreInt32(&succs[i].join, 1)
		}

		var start, wg sync.WaitGroup
		start.Add(1)
		var refused atomic.Int64
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				start.Wait()
				if !pred.addSuccessor(succs[g]) {
					refused.Add(1)
					succs[g].decJoin()
				}
			}(g)
		}
		notified := make(chan []*Node, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			notified <- pred.markComputed()
		}()
		start.Done()
		wg.Wait()

		drained := <-notified
		for _, s := range drained {
			s.decJoin()
		}
		if got := int64(len(drained)) + refused.Load(); got != goroutines {
			t.Fatalf("round %d: %d notified + %d refused != %d successors",
				round, len(drained), refused.Load(), goroutines)
		}
		for i, s := range succs {
			if j := atomic.LoadInt32(&s.join); j != 0 {
				t.Fatalf("round %d: successor %d accounted %d times",
					round, i, 1-j)
			}
		}
		if !pred.Computed() {
			t.Fatalf("round %d: pred not computed after markComputed", round)
		}
		// Late registration after computed must be refused.
		if pred.addSuccessor(&Node{}) {
			t.Fatalf("round %d: addSuccessor succeeded after markComputed", round)
		}
	}
}

// TestEngineBackendsAgree runs the same bounded graph through the real
// engine under both node-table backends and verifies exactly-once
// dependence-ordered execution each way.
func TestEngineBackendsAgree(t *testing.T) {
	for _, backend := range []NodeTableBackend{NodeTableDense, NodeTableSharded} {
		rec := newRecorder()
		const n = 800
		spec := FuncSpec{
			PredsFn: func(k Key) []Key {
				if k == 0 {
					return nil
				}
				ps := []Key{k - 1}
				if k >= 17 {
					ps = append(ps, k-17)
				}
				return ps
			},
			ColorFn:   func(k Key) int { return int(k) % 8 },
			ComputeFn: rec.record,
			BoundFn:   func() int { return n },
		}
		st, err := Run(spec, n-1, Options{Workers: 8, Policy: NabbitCPolicy(), NodeTable: backend})
		if err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if want := backend.String(); st.NodeBackend != want {
			t.Fatalf("backend %v: stats report %q", backend, st.NodeBackend)
		}
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(i)
		}
		rec.verify(t, spec, keys)
		if st.NodesCreated != n {
			t.Fatalf("backend %v: created %d, want %d", backend, st.NodesCreated, n)
		}
	}
}

// TestForcedDenseUnboundedErrors pins the loud failure mode: forcing the
// arena on a spec with no key bound must error, not silently fall back.
func TestForcedDenseUnboundedErrors(t *testing.T) {
	spec := FuncSpec{ComputeFn: func(Key) {}}
	_, err := Run(spec, 0, Options{Workers: 2, NodeTable: NodeTableDense})
	if err == nil {
		t.Fatal("NodeTableDense on an unbounded spec did not error")
	}
}

// TestArenaKeyOutOfBoundPanics pins the defensive check against specs
// that declare a bound smaller than the keys they generate.
func TestArenaKeyOutOfBoundPanics(t *testing.T) {
	spec, _ := boundedChainSpec(8, nil)
	a := testArena(spec, 2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bound key did not panic")
		}
	}()
	a.getOrCreate(99, 0, nil)
}

// TestArenaZeroAlloc pins the dense backend's headline property: after
// construction, create-or-get allocates nothing (the predecessor slice
// here is nil; spec-owned allocations are the spec's business).
func TestArenaZeroAlloc(t *testing.T) {
	const bound = 4096
	spec := FuncSpec{
		ColorFn: func(k Key) int { return int(k) % 8 },
		BoundFn: func() int { return bound },
	}
	a := testArena(spec, 8, bound)
	next := 0
	if avg := testing.AllocsPerRun(bound/2, func() {
		a.getOrCreate(Key(next), 0, nil)
		next++
	}); avg != 0 {
		t.Fatalf("arena create: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		a.getOrCreate(0, 0, nil)
	}); avg != 0 {
		t.Fatalf("arena lookup: %v allocs/op, want 0", avg)
	}
}

// TestDequeCapacitySizing pins the bound → initial-capacity policy.
func TestDequeCapacitySizing(t *testing.T) {
	cases := []struct {
		bound, workers, want int
	}{
		{0, 8, 64},   // unbounded: historical default
		{100, 8, 64}, // small bound: never below the default
		{10241, 8, 1281},
		{1 << 30, 8, 8192}, // huge bound: growth-irrelevant ceiling
	}
	for _, c := range cases {
		if got := dequeCapacity(c.bound, c.workers); got != c.want {
			t.Errorf("dequeCapacity(%d, %d) = %d, want %d", c.bound, c.workers, got, c.want)
		}
	}
}
