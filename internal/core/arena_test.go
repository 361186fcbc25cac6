package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pagesOfCone counts the directory entries cone g's keys fall under.
func pagesOfCone(sv *specView, g, width int) int {
	seen := map[int32]bool{}
	for k := g * (width + 1); k < (g+1)*(width+1); k++ {
		seen[sv.recs[k].slot>>pageShift] = true
	}
	return len(seen)
}

// carvedPages reads how many pages the pool has ever carved: pages are
// never freed, so that is every page the pool and all tables hold.
func carvedPages(p *pagePool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.carved
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
		if held := nt.(*nodeArena).held(); held > perCone {
			t.Errorf("an idle table holds %d pages, want at most the %d of one cone it may serve again", held, perCone)
		}
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
		a.reset(sink)
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
		a.release(0)
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
	a.reset(8)
	if held := a.held(); held != 0 {
		t.Fatalf("table still holds %d pages kept for sink 7 when reset for sink 8", held)
	}
	a.release(0)
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
// each other's slot ranges — through a four-worker engine with the
// watchdog armed (so the per-node publication and the stateMu-ordered
// hand-back are exercised too). One graph in every sixteen panics mid-cone:
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
		NodeTimeout: time.Minute,
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
