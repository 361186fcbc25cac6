package deque

import "testing"

// TestBlockRecycling pins the steady-state invariant the engine sizes
// capacity hints for: drain the deque entirely by stealing (so every
// block passes through the thief path), refill it, and repeat — block
// storage must cycle through the free list and the head harvest with
// zero growth.
func TestBlockRecycling(t *testing.T) {
	const perRound = 6 * blockSize // several sealed blocks per round
	q := NewBlock[int](perRound)
	for round := 0; round < 8; round++ {
		for i := 0; i < perRound; i++ {
			q.PushBottom(entry(i, i%testColors))
		}
		seen := make([]bool, perRound)
		for q.Len() > 0 {
			batch, out := q.Steal(nil, 0, nil)
			if out != StealOK {
				t.Fatalf("round %d: Steal = %v with %d items left", round, out, q.Len())
			}
			for _, e := range batch {
				if seen[e.Value] {
					t.Fatalf("round %d: value %d stolen twice", round, e.Value)
				}
				seen[e.Value] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("round %d: value %d lost", round, i)
			}
		}
	}
	if g := q.Grows(); g != 0 {
		t.Fatalf("Grows = %d after sized steal/refill rounds, want 0", g)
	}
}

// TestBlockRecyclingPopDrain is the owner-side variant: drain by popping
// (exercising move-back and in-place unsealing) instead of stealing.
func TestBlockRecyclingPopDrain(t *testing.T) {
	const perRound = 6 * blockSize
	q := NewBlock[int](perRound)
	for round := 0; round < 8; round++ {
		for i := 0; i < perRound; i++ {
			q.PushBottom(entry(i, i%testColors))
		}
		for i := perRound - 1; i >= 0; i-- {
			e, ok := q.PopBottom()
			if !ok || e.Value != i {
				t.Fatalf("round %d: pop = (%v, %v), want %d", round, e.Value, ok, i)
			}
		}
		if _, ok := q.PopBottom(); ok {
			t.Fatalf("round %d: pop on empty deque succeeded", round)
		}
	}
	if g := q.Grows(); g != 0 {
		t.Fatalf("Grows = %d after sized pop-drain rounds, want 0", g)
	}
}

// TestBlockSealedWholeBlockClaim pins the single-CAS batch: once older
// blocks are sealed, an uncapped Steal takes an entire block in one
// claim CAS, so CAS-per-stolen-item collapses to 1/blockSize.
func TestBlockSealedWholeBlockClaim(t *testing.T) {
	const n = 4 * blockSize // three sealed blocks + the active tail
	q := NewBlock[int](n)
	for i := 0; i < n; i++ {
		q.PushBottom(entry(i, i%testColors))
	}
	base := q.StealCASes()
	batch, out := q.Steal(nil, 0, nil)
	if out != StealOK {
		t.Fatalf("Steal = %v", out)
	}
	if len(batch) != blockSize {
		t.Fatalf("sealed-block batch took %d items, want the whole block (%d)", len(batch), blockSize)
	}
	for i, e := range batch {
		if e.Value != i {
			t.Fatalf("batch[%d] = %d, want oldest-first %d", i, e.Value, i)
		}
	}
	if cas := q.StealCASes() - base; cas != 1 {
		t.Fatalf("whole-block claim used %d CASes, want 1", cas)
	}
	// A capped batch still claims with one CAS and leaves the rest.
	base = q.StealCASes()
	batch, out = q.Steal(nil, 5, nil)
	if out != StealOK || len(batch) != 5 || batch[0].Value != blockSize {
		t.Fatalf("capped batch = (%d items, %v), first %v; want 5 items starting at %d",
			len(batch), out, batch[0].Value, blockSize)
	}
	if cas := q.StealCASes() - base; cas != 1 {
		t.Fatalf("capped sealed claim used %d CASes, want 1", cas)
	}
	if got, want := q.Len(), n-blockSize-5; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestBlockUnsealedBatchMatchesChaseLev pins that while everything still
// lives in the owner's unsealed tail block, Steal honours the exact
// batchSize contract the other substrates implement (TestStealContract
// depends on this), one claim CAS per item.
func TestBlockUnsealedBatchMatchesChaseLev(t *testing.T) {
	q := NewBlock[int](64)
	for i := 0; i < 10; i++ {
		q.PushBottom(entry(i, i%testColors))
	}
	base := q.StealCASes()
	batch, out := q.Steal(nil, 0, nil)
	if out != StealOK || len(batch) != 5 {
		t.Fatalf("unsealed uncapped Steal = (%d items, %v), want ceil(10/2) = 5", len(batch), out)
	}
	if cas := q.StealCASes() - base; cas != 5 {
		t.Fatalf("unsealed batch used %d CASes, want 1 per item (5)", cas)
	}
}

// TestBlockColoredGates covers the summary fast path: a block whose
// summary lacks the color misses without touching slot shadows, and a
// sealed colored batch claim still moves the whole block.
func TestBlockColoredGates(t *testing.T) {
	const n = 2 * blockSize
	q := NewBlock[int](n)
	for i := 0; i < n; i++ {
		q.PushBottom(entry(i, 3)) // every entry colored 3
	}
	if _, out := q.Steal(colors(7), 1, nil); out != StealMiss {
		t.Fatalf("single colored Steal(absent) = %v, want miss", out)
	}
	if _, out := q.Steal(colors(7), 0, nil); out != StealMiss {
		t.Fatalf("batched colored Steal(absent) = %v, want miss", out)
	}
	batch, out := q.Steal(colors(3), 0, nil)
	if out != StealOK || len(batch) != blockSize {
		t.Fatalf("batched colored Steal(present) = (%d items, %v), want full sealed block", len(batch), out)
	}
	if ents, out := q.Steal(colors(3), 1, nil); out != StealOK || ents[0].Value != blockSize {
		t.Fatalf("single colored Steal(present) = (%v, %v), want value %d", ents, out, blockSize)
	}
}
