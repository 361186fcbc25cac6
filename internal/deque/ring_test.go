package deque

import "testing"

// A ring whose owner drains it after thieves advanced the head must reuse
// the slots they vacated: round after round of 6 pushes, 4 steals and a
// drain never holds more than 6 entries, so it never grows past its first
// 8-entry buffer.
func TestRingReusesVacatedPrefix(t *testing.T) {
	const rounds, pushes, steals, first = 500, 6, 4, 8
	r := NewRing(make([]Entry[int], first))
	for round := 0; round < rounds; round++ {
		base := round * pushes
		for i := 0; i < pushes; i++ {
			r.PushBottom(Entry[int]{Value: base + i})
		}
		for i := 0; i < steals; i++ {
			ents, out := r.Steal(nil, 1, nil)
			if out != StealOK || len(ents) != 1 || ents[0].Value != base+i {
				t.Fatalf("round %d: steal %d returned %v, %v", round, i, ents, out)
			}
		}
		for i := pushes - 1; r.Len() > 0; i-- {
			if e, ok := r.PopBottom(); !ok || e.Value != base+i {
				t.Fatalf("round %d: pop returned %v, %v, want %d", round, e.Value, ok, base+i)
			}
		}
		if r.Len() != 0 || r.grows != 0 || len(r.buf) != first {
			t.Fatalf("round %d: Len() = %d, %d grows, buffer of %d after draining at most %d entries",
				round, r.Len(), r.grows, len(r.buf), pushes)
		}
	}
}
