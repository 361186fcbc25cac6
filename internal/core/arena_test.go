package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// pagesOfCone counts the directory entries cone g's keys fall under.
func pagesOfCone(sv *specView, g, width int) int {
	seen := map[int32]bool{}
	for k := g * (width + 1); k < (g+1)*(width+1); k++ {
		seen[sv.recs[k].slot>>pageShift] = true
	}
	return len(seen)
}

// carvedPages reads the most pages the pool has owned at once: every page
// it and all tables held at the engine's busiest moment.
func carvedPages(p *pagePool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// TestSubmitFootprintTracksInflight pins what the paging is for: with 128
// graphs of 17 nodes in flight over a universe of 1 024 cones, the engine's
// node memory — every page in the pool or under any table — stays within a
// small multiple of what the graphs in flight can name, and nowhere near
// one universe-sized table per graph.
func TestSubmitFootprintTracksInflight(t *testing.T) {
	const cones, width, workers, window, graphs = 1024, 16, 2, 128, 4096
	stride := width + 1
	counts := make([]atomic.Int32, cones*stride)
	spec := coneSpec(cones, width, workers, func(k Key) { counts[k].Add(1) })
	e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy(), MaxInflight: window})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	perCone := 0
	for g := 0; g < cones; g++ {
		perCone = max(perCone, pagesOfCone(e.sv, g, width))
	}

	ring := make([]*Ticket, 0, window)
	wait := func(tk *Ticket) {
		t.Helper()
		st, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if st.NodesCreated != stride {
			t.Fatalf("NodesCreated = %d, want %d", st.NodesCreated, stride)
		}
	}
	for i := 0; i < graphs; i++ {
		if len(ring) == window {
			wait(ring[0])
			ring = append(ring[:0], ring[1:]...)
		}
		tk, err := e.Submit(coneSink(i*7%cones, width))
		if err != nil {
			t.Fatal(err)
		}
		ring = append(ring, tk)
	}
	for _, tk := range ring {
		wait(tk)
	}
	for g := 0; g < cones; g++ {
		for k := g * stride; k < (g+1)*stride; k++ {
			if got, want := int(counts[k].Load()), graphs/cones; got != want {
				t.Fatalf("key %d computed %d times over %d visits of its cone", k, got, want)
			}
		}
	}

	// The pool carves a slab only when its shared list is empty, that is
	// when every page is under a table or on some worker's stack: window
	// graphs of at most perCone pages, a full stack per worker, and the
	// slab itself.
	carved := carvedPages(e.pool)
	limit := window*perCone + workers*stackPages + slabPages
	if carved > limit {
		t.Errorf("engine holds %d pages for %d graphs in flight of <= %d pages each, want <= %d",
			carved, window, perCone, limit)
	}
	if universe := len(e.sv.recs) / pageNodes; carved >= 8*universe {
		t.Errorf("engine holds %d pages: %d universes of %d pages, the footprint of per-graph tables",
			carved, carved/universe, universe)
	}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	for _, nt := range e.tables {
		if held := nt.held(); held > perCone {
			t.Errorf("an idle table holds %d pages, want at most the %d of one cone it may serve again", held, perCone)
		}
	}
}

// TestSubmitTableFootprint pins what a node table costs beyond its pages:
// 64 cone graphs of 17 nodes admitted at once check out 64 tables, which
// stay idle once the graphs are done, each holding the pages of the cone
// it ran (a table keeps them for a repeat). Whatever the key bound, the
// engine's heap may grow by the pages its pool owns and at most 2 KB a
// table: a table's memory follows the pages its graph installs, not the
// bound.
func TestSubmitTableFootprint(t *testing.T) {
	const width, workers, window, perTable = 16, 2, 64, 2 << 10
	for _, cones := range []int{1 << 10, 1 << 14, 1 << 16} {
		bound := cones * (width + 1)
		t.Run(fmt.Sprintf("%d keys", bound), func(t *testing.T) {
			gate := make(chan struct{})
			spec := conesSpecPre(cones, width, workers, func(Key) { <-gate })
			e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy(), MaxInflight: window})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			tks := make([]*Ticket, window)
			heap := func() uint64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := heap()
			// Every graph is admitted, and so holds a table of its own, before
			// any task may finish.
			for i := range tks {
				if tks[i], err = e.Submit(coneSink(i*cones/window, width)); err != nil {
					t.Fatal(err)
				}
			}
			close(gate)
			for _, tk := range tks {
				if st, err := tk.Wait(); err != nil || st.NodesCreated != width+1 {
					t.Fatalf("stats %+v, err %v", st, err)
				}
			}
			clear(tks)
			after := heap()
			e.stateMu.Lock()
			tables := len(e.tables)
			e.stateMu.Unlock()
			if tables != window {
				t.Fatalf("%d idle tables, want the %d the graphs in flight checked out", tables, window)
			}
			e.pool.mu.Lock()
			pages := uint64(len(e.pool.slabs) * slabPages * int(unsafe.Sizeof(nodePage{})))
			e.pool.mu.Unlock()
			grown := int64(after) - int64(before) - int64(pages)
			t.Logf("heap grew %d B: %d B of pool pages, %d B a table beyond them", after-before, pages, grown/window)
			if grown > window*perTable {
				t.Errorf("%d tables cost %d B beyond the pool's %d B of pages, %d B a table; want <= %d",
					window, grown, pages, grown/window, perTable)
			}
		})
	}
}

// TestNewEngineFootprint pins what NewEngine allocates for a bounded spec:
// the key records (8 bytes a key, 12 with a HomeSpec's homes) and little
// else — a worker's deque starts at dequeInit entries and grows with the
// frontier, not with the key space, and the records are laid out in place
// without a key-sized scratch array.
func TestNewEngineFootprint(t *testing.T) {
	const keys = 1 << 17
	bounded := FuncSpec{
		ColorFn: func(k Key) int { return int(k) % 8 },
		BoundFn: func() int { return keys },
	}
	homed := Recolored{Spec: bounded, ColorFn: func(k Key) int { return int(k+1) % 8 }}
	rows := []struct {
		name    string
		spec    Spec
		workers int
		perKey  uint64
	}{
		{"1w", bounded, 1, 8},
		{"2w", bounded, 2, 8},
		{"8w", bounded, 8, 8},
		{"HomeSpec-2w", homed, 2, 12},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			e, err := NewEngine(row.spec, Options{Workers: row.workers, Policy: NabbitCPolicy()})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			limit := row.perKey*keys + uint64(row.workers)*16<<10 + 64<<10
			t.Logf("%d B, %d B over the records", got, got-row.perKey*keys)
			if got > limit {
				t.Errorf("NewEngine allocated %d B for %d keys on %d workers, want <= %d (%d B a key + 16 KB a worker + 64 KB)",
					got, keys, row.workers, limit, row.perKey)
			}
		})
	}
}

// TestPagePoolTrim pins what an idle pool falls back to: its oldest
// keepSlabs slabs, every page of them on the shared list, reading as absent
// and naming no node, with the workers' stacks empty — and that a pool with
// a page still out, or no more slabs than it keeps, is left as it is.
func TestPagePoolTrim(t *testing.T) {
	const workers = 2
	p := newPagePool(workers)
	keep := p.keepSlabs
	var out []*nodePage
	for i := 0; i < (keep+3)*slabPages; i++ {
		out = append(out, p.take(i%(workers+1)-1, 0))
	}
	for i, pg := range out {
		// What a run leaves behind: a stamped word and a successor array
		// naming a node of some other page.
		n := &pg[i%pageNodes]
		n.state.Store(epochUnit | nodeComputed)
		n.setSuccs([]*Node{&out[(i+1)%len(out)][0]})
	}
	owned := func() int { return len(p.slabs) * slabPages }
	free := func() int {
		n := len(p.shared)
		for i := range p.stacks {
			n += p.stacks[i].n
		}
		return n
	}

	for i, pg := range out[1:] {
		p.give(i%(workers+1)-1, 0, pg)
	}
	before := owned()
	p.trim()
	if owned() != before || free() != before-1 {
		t.Fatalf("trim with a page out: pool owns %d pages, %d free; want %d and %d untouched", owned(), free(), before, before-1)
	}

	p.give(0, 0, out[0])
	p.trim()
	if owned() != keep*slabPages || free() != owned() || len(p.shared) != owned() {
		t.Fatalf("trimmed pool owns %d pages, %d free, %d shared; want all of %d slabs on the shared list",
			owned(), free(), len(p.shared), keep)
	}
	if p.peak != before {
		t.Errorf("peak = %d, want the %d pages owned before the trim", p.peak, before)
	}
	seen := map[*nodePage]bool{}
	for _, pg := range p.shared {
		if seen[pg] {
			t.Fatalf("page %p is on the shared list twice", pg)
		}
		seen[pg] = true
		for i := range pg {
			if v := pg[i].state.Load(); v != 0 {
				t.Fatalf("kept page %p slot %d reads %#x, want 0", pg, i, v)
			}
			for _, sn := range pg[i].succBacking() {
				if sn != nil {
					t.Fatalf("kept page %p slot %d still names node %p", pg, i, sn)
				}
			}
		}
	}
	for _, slab := range p.slabs {
		for i := range slab {
			if !seen[&slab[i]] {
				t.Fatalf("page %d of a kept slab is not on the shared list", i)
			}
		}
	}
	for i := range p.stacks {
		for j, pg := range p.stacks[i].pages {
			if pg != nil {
				t.Fatalf("stack %d still names a page at %d", i, j)
			}
		}
	}

	p.trim()
	if owned() != keep*slabPages || free() != owned() {
		t.Fatalf("a second trim moved the pool: owns %d, free %d", owned(), free())
	}
}

// TestIdleTrimBetweenBursts is the trim's race workout: bursts of 128
// graphs in flight with the engine idle between them, on a pool told to
// keep a single slab so that every burst outgrows it and every lull trims
// it while the workers are still on their way to parking. Every visit of a
// cone must compute each of its keys exactly once on whatever pages the
// pool carved for that burst. Run under -race in CI.
func TestIdleTrimBetweenBursts(t *testing.T) {
	const cones, width, workers, window, bursts = 1024, 16, 2, 128, 24
	stride := width + 1
	counts := make([]atomic.Int32, cones*stride)
	spec := coneSpec(cones, width, workers, func(k Key) { counts[k].Add(1) })
	e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy(), MaxInflight: window})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.pool.keepSlabs = 1
	visits := make([]int32, cones)
	tks := make([]*Ticket, 0, window)
	for b := 0; b < bursts; b++ {
		tks = tks[:0]
		for i := 0; i < window; i++ {
			g := (b*window + i) * 7 % cones
			visits[g]++
			tk, err := e.Submit(coneSink(g, width))
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		for _, tk := range tks {
			if st, err := tk.Wait(); err != nil || st.NodesCreated != stride {
				t.Fatalf("burst %d: stats %+v, err %v", b, st, err)
			}
		}
	}
	for g := 0; g < cones; g++ {
		for k := g * stride; k < (g+1)*stride; k++ {
			if got := counts[k].Load(); got != visits[g] {
				t.Fatalf("key %d computed %d times over %d visits of its cone", k, got, visits[g])
			}
		}
	}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	for _, nt := range e.tables {
		if nt.held() > 0 {
			return // a table kept its pages for a repeat: the last trim stood aside
		}
	}
	if e.pool.peak <= slabPages {
		t.Errorf("peak = %d pages: no burst outgrew the one slab kept, the test exercised nothing", e.pool.peak)
	}
	if owned := len(e.pool.slabs); owned != 1 {
		t.Errorf("idle engine owns %d slabs, want the 1 it was told to keep", owned)
	}
}

// TestArenaKeepsPagesForSameSink pins the one exception to handing pages
// back at the end of a run: a table on its first run, or asked for the same
// sink as the time before, keeps its pages for the next run — which finds
// every node where it was — and gives them up as soon as it is asked for
// another graph, from then on at the end of every run.
func TestArenaKeepsPagesForSameSink(t *testing.T) {
	const bound = 3 * pageNodes
	spec, _ := boundedChainSpec(bound, nil)
	a := testArena(spec, 2, bound)
	run := func(sink Key) (nodes []*Node) {
		a.reset(sink, false)
		for k := Key(0); k < bound; k++ {
			n, created := a.getOrCreate(k, int(k)%2, nil)
			if !created {
				t.Fatalf("sink %d: key %d not created", sink, k)
			}
			nodes = append(nodes, n)
		}
		if a.count() != bound {
			t.Fatalf("sink %d: count = %d, want %d", sink, a.count(), bound)
		}
		a.release(0, false)
		return nodes
	}
	first := run(7)
	if held := a.held(); held != bound/pageNodes {
		t.Fatalf("the table's first run left %d pages, want all %d kept", held, bound/pageNodes)
	}
	second := run(7)
	for k := range second {
		if second[k] != first[k] {
			t.Fatalf("key %d moved from %p to %p between runs of the same sink", k, first[k], second[k])
		}
	}
	a.reset(8, false)
	if held := a.held(); held != 0 {
		t.Fatalf("table still holds %d pages kept for sink 7 when reset for sink 8", held)
	}
	a.release(0, false)
	run(9)
	if held := a.held(); held != 0 {
		t.Fatalf("a run after a change of sink left %d pages in the table", held)
	}
	run(9)
	if held := a.held(); held != bound/pageNodes {
		t.Fatalf("the second run of a new sink left %d pages, want all %d kept", held, bound/pageNodes)
	}
}

// TestPagedArenaSharedPagesStress is the paging's race workout: 64
// submitters push cones of eight keys — eight cones to a page, so
// neighbouring graphs' tables install, fill and hand back pages that hold
// each other's slot ranges — through a four-worker engine. One graph in
// every sixteen panics mid-cone:
// its table is quarantined with its pages while the rest keep recycling
// theirs. Every graph of a cone that never fails must compute each of its
// keys exactly once (a failed graph's last in-flight item may still land a
// compute after its Wait has returned, so the failing cones are judged
// only in the last pass), and a healthy pass over every cone after the
// pool has quiesced must do the same on the reclaimed tables. Run under
// -race in CI.
func TestPagedArenaSharedPagesStress(t *testing.T) {
	const cones, width, workers, submitters, rounds = 256, 7, 4, 64, 6
	stride := width + 1
	var counts [rounds + 1][]atomic.Int32
	for i := range counts {
		counts[i] = make([]atomic.Int32, cones*stride)
	}
	var round atomic.Int32
	var arm atomic.Bool
	faulty := func(g int) bool { return g%16 == 5 }
	spec := coneSpec(cones, width, workers, func(k Key) {
		if arm.Load() && faulty(int(k)/stride) && int(k)%stride == 3 {
			panic("injected")
		}
		counts[round.Load()][k].Add(1)
	})
	e, err := NewEngine(spec, Options{
		Workers: workers, Policy: NabbitCPolicy(), MaxInflight: submitters,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	pass := func(r int, failing, judgeAll bool) {
		t.Helper()
		round.Store(int32(r))
		arm.Store(failing)
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for g := s; g < cones; g += submitters {
					tk, err := e.Submit(coneSink(g, width))
					if err != nil {
						t.Errorf("round %d: Submit cone %d: %v", r, g, err)
						return
					}
					st, err := tk.Wait()
					if failing && faulty(g) {
						var ce *ComputeError
						if !errors.As(err, &ce) {
							t.Errorf("round %d: cone %d: err = %v, want the injected *ComputeError", r, g, err)
						}
						continue
					}
					if err != nil || st.NodesCreated != stride {
						t.Errorf("round %d: cone %d: stats %+v, err %v", r, g, st, err)
					}
				}
			}(s)
		}
		wg.Wait()
		for g := 0; g < cones; g++ {
			if faulty(g) && !judgeAll {
				continue
			}
			for k := g * stride; k < (g+1)*stride; k++ {
				if n := counts[r][k].Load(); n != 1 {
					t.Errorf("round %d: key %d computed %d times, want exactly once", r, k, n)
				}
			}
		}
	}
	for r := 0; r < rounds; r++ {
		pass(r, r%2 == 1, false)
	}
	// Execute quiesces the pool, which reclaims every quarantined table
	// and its pages; the pass after it runs on them.
	arm.Store(false)
	if _, err := e.Execute(coneSink(0, width)); err != nil {
		t.Fatal(err)
	}
	pass(rounds, false, true)
}
