package core

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tableRow is one of the two slot rules the engine-level table tests run a
// spec under: "dense" runs the spec as declared, so its keys have records;
// "unbounded" hides its bound, so every key is its own slot under the radix
// directory.
type tableRow struct {
	name string
	hide bool
}

var tableRows = []tableRow{{"dense", false}, {"unbounded", true}}

// spec returns s as the row runs it.
func (r tableRow) spec(s FuncSpec) FuncSpec {
	if r.hide {
		s.BoundFn = nil
	}
	return s
}

// hideBound is tableRow.spec's hiding for a replay rig's wrap.
func hideBound(s FuncSpec) Spec { return tableRow{hide: true}.spec(s) }

// unboundedSpec hides the bound of a spec that is not a FuncSpec.
type unboundedSpec struct{ BoundedSpec }

func (unboundedSpec) KeyBound() int { return 0 }

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

// TestHomeMajorLayout checks the arena's layout contract on the key
// records indexKeys builds: slots sorted by home, stable by key within a
// home, out-of-range homes (-1 and past the workers) in one trailing
// bucket, and the slots a bijection. Every record keeps the key's colour,
// and homes are kept apart from the colours only for a HomeSpec. A created
// node must land in its record's slot with key, colour and home filled in.
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
	homeColored := FuncSpec{ColorFn: home}
	rotated := func(k Key) int { return int(k+1) % workers }
	rows := []struct {
		name  string
		spec  Spec
		color func(Key) int
	}{
		{"homes are colours", homeColored, home},
		{"HomeSpec", Recolored{Spec: homeColored, ColorFn: rotated}, rotated},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			a := testArena(row.spec, workers, bound)
			recs := a.sv.recs
			if len(recs) != bound {
				t.Fatalf("%d records, want %d", len(recs), bound)
			}
			if _, hs := row.spec.(HomeSpec); hs != (a.sv.homes != nil) {
				t.Fatalf("homes kept = %v for a spec with HomeSpec = %v", a.sv.homes != nil, hs)
			}
			keyAt := make([]Key, bound)
			seen := make([]bool, bound)
			for k, r := range recs {
				if r.slot < 0 || int(r.slot) >= bound {
					t.Fatalf("key %d: slot %d out of range", k, r.slot)
				}
				if seen[r.slot] {
					t.Fatalf("slot %d assigned twice", r.slot)
				}
				seen[r.slot] = true
				keyAt[r.slot] = Key(k)
				if int(r.color) != row.color(Key(k)) {
					t.Fatalf("key %d recorded colour %d, want %d", k, r.color, row.color(Key(k)))
				}
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
			for k := 0; k < bound; k++ {
				slot := recs[k].slot
				n, _ := a.getOrCreate(Key(k), 0, nil)
				if pg := a.page(uint64(slot >> pageShift)); n != &pg[slot&pageMask] {
					t.Fatalf("key %d not created in slot %d", k, slot)
				}
				if n.key != Key(k) || n.Home() != home(Key(k)) || n.Color() != row.color(Key(k)) {
					t.Fatalf("node for key %d filled as key=%d color=%d home=%d",
						k, n.key, n.color, n.home)
				}
			}
		})
	}
}

// TestArenaGetOrCreateRace hammers concurrent create-or-get over the
// lifecycle word and the install path: every key must be created exactly
// once, and every returned node must already be fully initialized (run
// with -race). The first bounded row's 512 keys fill exactly the table's
// list of pages; the second's 4 096 span 64 pages, so the racers cross the
// install that copies the list into the directory and then install under
// it. The unbounded row's keys are 64 apart from 2^40 up, each on a page of
// its own and all past the first leaf's reach, so its racers cross the copy
// too, and then grow the root and the interior levels under the lock while
// others look pages up without it.
func TestArenaGetOrCreateRace(t *testing.T) {
	const goroutines = 8
	spec := func(bound int) FuncSpec {
		return FuncSpec{
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
	}
	rows := []struct {
		name  string
		keys  int
		pages int
		table func() *nodeArena
		key   func(i int) Key
	}{
		{"bounded", listPages * pageNodes, listPages, func() *nodeArena { return testArena(spec(listPages*pageNodes), goroutines, listPages*pageNodes) }, func(i int) Key { return Key(i) }},
		{"bounded past the list", 64 * pageNodes, 64, func() *nodeArena { return testArena(spec(64*pageNodes), goroutines, 64*pageNodes) }, func(i int) Key { return Key(i) }},
		{"unbounded", 512, 512, func() *nodeArena { return testRawArena(spec(0), goroutines) }, func(i int) Key { return 1<<40 + Key(i)*pageNodes }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			keys := row.keys
			for round := 0; round < 10; round++ {
				a := row.table()
				var created atomic.Int64
				var start, wg sync.WaitGroup
				start.Add(1)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						start.Wait()
						for i := 0; i < keys*4; i++ {
							k := row.key((i*7 + g*13) % keys)
							n, isNew := a.getOrCreate(k, g, nil)
							if isNew {
								created.Add(1)
							}
							if n.key != k {
								t.Errorf("key %d resolved to node with key %d", k, n.key)
								return
							}
							// The node must be published fully initialized.
							if got := len(n.predKeys()); got != int(k)%3 {
								t.Errorf("key %d observed %d preds, want %d", k, got, int(k)%3)
								return
							}
						}
					}(g)
				}
				start.Done()
				wg.Wait()
				if created.Load() != int64(keys) {
					t.Fatalf("round %d: %d creations for %d keys", round, created.Load(), keys)
				}
				if a.count() != keys {
					t.Fatalf("round %d: count = %d, want %d", round, a.count(), keys)
				}
				if got := a.held(); got != row.pages {
					t.Fatalf("round %d: table holds %d pages, want %d", round, got, row.pages)
				}
			}
		})
	}
}

// TestArenaRawKeyEdges places the keys the raw-key rule must fold —
// negatives, both ends of Key, keys 2^40 apart — and checks that each gets
// a slot of its own, is found again, is counted, and is listed by
// pendingKeys in order until it computes. Keys of small magnitude, either
// sign, keep the tree at its first leaf; math.MinInt64 grows it to exactly
// the ten levels 2^58 page numbers need.
func TestArenaRawKeyEdges(t *testing.T) {
	a := testRawArena(FuncSpec{}, 2)
	for k := Key(-pageNodes * dirFan / 2); k < pageNodes*dirFan/2; k++ {
		a.getOrCreate(k, 0, nil)
	}
	if top := a.top.Load(); top.shift != 0 || a.held() != dirFan {
		t.Fatalf("keys of magnitude < 2048: tree at shift %d holding %d pages, want the first leaf's %d", top.shift, a.held(), dirFan)
	}
	a.reset(1, false)
	a.reset(2, false)

	keys := []Key{
		math.MinInt64, math.MinInt64 + 1, -3 << 40, -2 << 40, -1 << 40, -65, -64, -1,
		0, 1, 63, 64, 1 << 40, 2 << 40, 3 << 40, math.MaxInt64 - 1, math.MaxInt64,
	}
	nodes := map[*Node]Key{}
	for i, k := range keys {
		n, created := a.getOrCreate(k, i%2, nil)
		if !created || n.key != k {
			t.Fatalf("key %d: created %v, node of key %d", k, created, n.key)
		}
		if other, dup := nodes[n]; dup {
			t.Fatalf("keys %d and %d share a slot", other, k)
		}
		nodes[n] = k
	}
	for _, k := range keys {
		if n, ok := a.get(k); !ok || n.key != k {
			t.Fatalf("key %d not found again", k)
		}
		if n, created := a.getOrCreate(k, 0, nil); created || n.key != k {
			t.Fatalf("key %d created twice", k)
		}
	}
	if got := a.count(); got != len(keys) {
		t.Fatalf("count = %d, want %d", got, len(keys))
	}
	if got := a.pendingKeys(); !slices.Equal(got, keys) {
		t.Fatalf("pendingKeys = %v, want %v", got, keys)
	}
	for _, k := range keys[:3] {
		n, _ := a.get(k)
		n.retire()
	}
	if got := a.pendingKeys(); !slices.Equal(got, keys[3:]) {
		t.Fatalf("pendingKeys after three computed = %v, want %v", got, keys[3:])
	}
	if top := a.top.Load(); top.shift != 9*dirShift {
		t.Fatalf("tree over ±2^63 at shift %d, want %d (ten levels)", top.shift, 9*dirShift)
	}
}

// TestNotifyLifecycleRace races addSuccessor against retire: every
// successor must be accounted exactly once — either registered (and then
// returned by retire) or refused (and accounted by its caller).
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
			notified <- pred.retire()
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
		if nodePhase(pred.state.Load()) != nodeComputed {
			t.Fatalf("round %d: pred not computed after retire", round)
		}
		// Late registration after computed must be refused.
		if pred.addSuccessor(&Node{}) {
			t.Fatalf("round %d: addSuccessor succeeded after retire", round)
		}
	}
}

// TestEngineBackendsAgree runs the same graph through the real engine
// under both slot rules (tableRows) and verifies exactly-once
// dependence-ordered execution each way.
func TestEngineBackendsAgree(t *testing.T) {
	for _, row := range tableRows {
		rec := newRecorder()
		const n = 800
		spec := row.spec(FuncSpec{
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
		})
		st, err := Run(spec, n-1, Options{Workers: 8, Policy: NabbitCPolicy()})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(i)
		}
		rec.verify(t, spec, keys)
		if st.NodesCreated != n {
			t.Fatalf("%s: created %d, want %d", row.name, st.NodesCreated, n)
		}
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

// TestNodeStorePanicPoisonsSlot: a NodeStore whose spec panics inside
// Predecessors lets the panic through, and its next call finds the key's
// slot published poisoned — created, with a join nothing can drain —
// rather than spinning on a slot left claimed.
func TestNodeStorePanicPoisonsSlot(t *testing.T) {
	spec, _ := boundedChainSpec(8, nil)
	spec.PredsFn = func(k Key) []Key {
		if k == 5 {
			panic("boom")
		}
		return nil
	}
	s, err := NewNodeStore(spec, 2, NodeTableDense)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the spec's panic did not reach the caller")
			}
		}()
		s.GetOrCreate(5)
	}()
	type got struct {
		n       *Node
		created bool
	}
	ch := make(chan got, 1)
	go func() {
		n, created := s.GetOrCreate(5)
		ch <- got{n, created}
	}()
	var n *Node
	var created bool
	select {
	case g := <-ch:
		n, created = g.n, g.created
	case <-time.After(10 * time.Second):
		t.Fatal("hung: the next call spins on the slot the panic left claimed")
	}
	if j := atomic.LoadInt32(&n.join); created || n.key != 5 || j != poisonedJoin || s.Count() != 1 {
		t.Fatalf("after the panic: created %v, key %d, join %d, count %d; want a poisoned node 5, counted once",
			created, n.key, j, s.Count())
	}
}

// TestArenaZeroAlloc pins the indexed table's allocation budget: a table
// allocates at most once in its life — its directory, on the install that
// outgrows the list — and after that create-or-get allocates nothing (the
// predecessor slice here is nil; spec-owned allocations are the spec's
// business). The mallocs are counted directly, over a whole run and then
// over a second one, on a pool that a first table has already grown to the
// pages a run needs, so that only the table's own allocations count.
func TestArenaZeroAlloc(t *testing.T) {
	const bound = 4096
	spec := FuncSpec{
		ColorFn: func(k Key) int { return int(k) % 8 },
		BoundFn: func() int { return bound },
	}
	warm := testArena(spec, 8, bound)
	createAll := func(a *nodeArena) {
		for k := Key(0); k < bound; k++ {
			a.getOrCreate(k, 0, nil)
		}
	}
	// Each table is checked out for sink 1 first, as an engine would, so
	// that a reset for another sink hands its pages back.
	warm.reset(1, false)
	createAll(warm)
	warm.reset(2, false)
	a := newNodeArena(warm.sv, warm.pool)
	a.reset(1, false)
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if got := mallocs(func() { createAll(a) }); got != 1 {
		t.Fatalf("a table's first run of %d pages: %d allocations, want 1 (its directory)", bound/pageNodes, got)
	}
	if got := mallocs(func() { createAll(a) }); got != 0 {
		t.Fatalf("%d lookups: %d allocations, want 0", bound, got)
	}
	a.reset(2, false) // another sink: the pages go back, the directory stays
	if got := mallocs(func() { createAll(a) }); got != 0 {
		t.Fatalf("a run on a table that has its directory: %d allocations, want 0", got)
	}
	a.reset(3, false)
	small := newNodeArena(warm.sv, warm.pool)
	small.reset(1, false)
	if got := mallocs(func() {
		for k := Key(0); k < listPages*pageNodes; k++ {
			small.getOrCreate(k, 0, nil)
		}
	}); got != 0 {
		t.Fatalf("a run of %d pages, the list's: %d allocations, want 0", listPages, got)
	}
}
