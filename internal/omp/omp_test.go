package omp

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestStaticRangeCoverage(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n, p := int(nRaw)%5000, int(pRaw)%64+1
		prev := 0
		for w := 0; w < p; w++ {
			lo, hi := StaticRange(n, p, w)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticRangeBalance(t *testing.T) {
	// Ranges must differ in size by at most 1.
	n, p := 1003, 17
	min, max := n, 0
	for w := 0; w < p; w++ {
		lo, hi := StaticRange(n, p, w)
		sz := hi - lo
		if sz < min {
			min = sz
		}
		if sz > max {
			max = sz
		}
	}
	if max-min > 1 {
		t.Fatalf("static imbalance: min %d, max %d", min, max)
	}
}

func TestGuidedChunkShrinks(t *testing.T) {
	p := 8
	prev := GuidedChunk(10000, p)
	remaining := 10000 - prev
	for remaining > 0 {
		c := GuidedChunk(remaining, p)
		if c > prev && c != MinChunk {
			t.Fatalf("guided chunk grew: %d after %d", c, prev)
		}
		if c < MinChunk || c > remaining {
			t.Fatalf("chunk %d out of bounds (remaining %d)", c, remaining)
		}
		prev = c
		remaining -= c
	}
}

func TestForStaticExecutesAll(t *testing.T) {
	team := NewTeam(8)
	defer team.Close()
	const n = 10000
	var hits [n]atomic.Int32
	team.For(n, Static, func(i, w int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestForGuidedExecutesAll(t *testing.T) {
	team := NewTeam(8)
	defer team.Close()
	const n = 10000
	var hits [n]atomic.Int32
	team.For(n, Guided, func(i, w int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestForStaticOwnership(t *testing.T) {
	// Under static scheduling iteration i must run on the owner
	// StaticRange prescribes — the locality contract.
	team := NewTeam(5)
	defer team.Close()
	const n = 1234
	owner := make([]atomic.Int32, n)
	team.For(n, Static, func(i, w int) { owner[i].Store(int32(w + 1)) })
	for w := 0; w < 5; w++ {
		lo, hi := StaticRange(n, 5, w)
		for i := lo; i < hi; i++ {
			if got := int(owner[i].Load()) - 1; got != w {
				t.Fatalf("iteration %d ran on worker %d, want %d", i, got, w)
			}
		}
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var count atomic.Int32
	team.For(0, Static, func(i, w int) { count.Add(1) })
	team.For(0, Guided, func(i, w int) { count.Add(1) })
	if count.Load() != 0 {
		t.Fatal("empty loop executed iterations")
	}
	team.For(2, Static, func(i, w int) { count.Add(1) })
	team.For(2, Guided, func(i, w int) { count.Add(1) })
	if count.Load() != 4 {
		t.Fatalf("tiny loops executed %d iterations, want 4", count.Load())
	}
}

func TestForSweepsBarrierOrdering(t *testing.T) {
	// A sweep may only start once the previous sweep has fully finished:
	// record a per-sweep running count and assert no overlap.
	team := NewTeam(6)
	defer team.Close()
	const sweeps, n = 8, 600
	var current atomic.Int32 // sweep currently executing
	var violations atomic.Int32
	current.Store(0)
	team.ForSweeps(sweeps, n, Static, func(s, i, w int) {
		cur := current.Load()
		if int(cur) > s {
			violations.Add(1)
		}
		if int(cur) < s {
			// First body of a new sweep: all workers must have passed
			// the barrier, so the previous sweep is complete.
			current.CompareAndSwap(cur, int32(s))
		}
	})
	if violations.Load() != 0 {
		t.Fatalf("%d iterations of an earlier sweep ran after a later sweep began", violations.Load())
	}
}

func TestForSweepsGuidedExecutesAll(t *testing.T) {
	team := NewTeam(7)
	defer team.Close()
	const sweeps, n = 5, 2000
	counts := make([]atomic.Int32, sweeps*n)
	team.ForSweeps(sweeps, n, Guided, func(s, i, w int) {
		counts[s*n+i].Add(1)
	})
	for idx := range counts {
		if counts[idx].Load() != 1 {
			t.Fatalf("sweep %d iteration %d executed %d times",
				idx/n, idx%n, counts[idx].Load())
		}
	}
}

func TestBarrierPhases(t *testing.T) {
	const p, phases = 8, 50
	b := NewBarrier(p)
	var phase [p]int
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ph := 0; ph < phases; ph++ {
				phase[w] = ph
				b.Wait(w)
				// After the barrier every worker must have reached ph.
				for o := 0; o < p; o++ {
					if phase[o] < ph {
						t.Errorf("worker %d at phase %d saw worker %d at %d",
							w, ph, o, phase[o])
						return
					}
				}
				b.Wait(w)
			}
		}(w)
	}
	wg.Wait()
}

func TestTeamReuse(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var total atomic.Int64
	for round := 0; round < 20; round++ {
		team.For(100, Static, func(i, w int) { total.Add(1) })
	}
	if total.Load() != 2000 {
		t.Fatalf("total = %d, want 2000", total.Load())
	}
}

func TestTeamCloseIdempotent(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // must not panic
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Guided.String() != "guided" {
		t.Fatal("schedule names wrong")
	}
}

func BenchmarkBarrier(b *testing.B) {
	const p = 8
	bar := NewBarrier(p)
	var wg sync.WaitGroup
	iters := b.N
	b.ResetTimer()
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				bar.Wait(w)
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkGuidedFor(b *testing.B) {
	team := NewTeam(8)
	defer team.Close()
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.For(10000, Guided, func(i, w int) { sink.Add(int64(i)) })
	}
}
