package colorset

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestSetSize pins the Set at half a cache line: one rides in every deque
// entry, and the scheduler's entry budget (80 bytes, pinned in
// internal/core) assumes it.
func TestSetSize(t *testing.T) {
	if sz := unsafe.Sizeof(Set{}); sz > 32 {
		t.Fatalf("Set is %d bytes, want <= 32", sz)
	}
}

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Cap() != 100 {
		t.Fatalf("Cap = %d, want 100", s.Cap())
	}
}

func TestAddHas(t *testing.T) {
	s := New(130) // spans three words
	for _, c := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(c) {
			t.Fatalf("color %d present before Add", c)
		}
		s.Add(c)
		if !s.Has(c) {
			t.Fatalf("color %d absent after Add", c)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestOf(t *testing.T) {
	s := Of(80, 0, 10, 79)
	want := []int{0, 10, 79}
	got := s.Colors()
	if len(got) != len(want) {
		t.Fatalf("Colors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Colors = %v, want %v", got, want)
		}
	}
}

func TestHasOutOfRange(t *testing.T) {
	s := Of(10, 3)
	if s.Has(-1) {
		t.Fatal("Has(-1) = true")
	}
	if s.Has(1000) {
		t.Fatal("Has(1000) = true")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	s := New(10)
	s.Add(10)
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intersects with mismatched caps did not panic")
		}
	}()
	a, b := New(10), New(20)
	a.Intersects(b)
}

func TestIntersects(t *testing.T) {
	a := Of(100, 5, 80)
	b := Of(100, 80)
	c := Of(100, 6)
	if !a.Intersects(b) {
		t.Fatal("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Fatal("a and c should not intersect")
	}
}

func TestEqual(t *testing.T) {
	a := Of(70, 1, 69)
	b := a // an inline set is copied by assignment
	if !a.Equal(b) || !a.Equal(Of(70, 69, 1)) {
		t.Fatal("sets of the same colors not equal")
	}
	b.Add(2)
	if a.Equal(b) {
		t.Fatal("mutated copy still equal")
	}
	if a.Has(2) {
		t.Fatal("copy's mutation leaked into original")
	}
	if a.Equal(Of(71, 1, 69)) {
		t.Fatal("sets of different capacity reported equal")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := Of(100, 1, 2, 3, 4)
	var seen []int
	s.ForEach(func(c int) bool {
		seen = append(seen, c)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("seen = %v, want [1 2]", seen)
	}
}

func TestString(t *testing.T) {
	if got := Of(10, 1, 7).String(); got != "{1,7}" {
		t.Fatalf("String = %q, want {1,7}", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("String = %q, want {}", got)
	}
}

// Property: Colors() returns exactly the colors added, deduplicated and
// sorted.
func TestQuickAddColors(t *testing.T) {
	f := func(raw []uint16) bool {
		const cap = 512
		s := New(cap)
		seen := map[int]bool{}
		for _, r := range raw {
			c := int(r) % cap
			s.Add(c)
			seen[c] = true
		}
		got := s.Colors()
		if len(got) != len(seen) {
			return false
		}
		prev := -1
		for _, c := range got {
			if !seen[c] || c <= prev {
				return false
			}
			prev = c
		}
		return s.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersects(a,b) == (a ∩ b nonempty).
func TestQuickIntersects(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const cap = 256
		a, b := New(cap), New(cap)
		inA := map[int]bool{}
		for _, x := range xs {
			a.Add(int(x) % cap)
			inA[int(x)%cap] = true
		}
		shared := false
		for _, y := range ys {
			b.Add(int(y) % cap)
			shared = shared || inA[int(y)%cap]
		}
		return a.Intersects(b) == shared
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHas(b *testing.B) {
	s := New(80)
	for c := 0; c < 80; c += 3 {
		s.Add(c)
	}
	sink := false
	for i := 0; i < b.N; i++ {
		sink = s.Has(i % 80)
	}
	_ = sink
}

// TestInlineSpillEquivalence is the representation property test: across
// capacities spanning the inline/spill boundary (1..200), every operation
// behaves identically to a reference model, so the inline [2]uint64
// fast path and the spilled slice path are observationally the same set.
func TestInlineSpillEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for capacity := 1; capacity <= 200; capacity++ {
		s := New(capacity)
		o := New(capacity)
		model := map[int]bool{}
		omodel := map[int]bool{}
		for op := 0; op < 300; op++ {
			c := r.Intn(capacity)
			switch r.Intn(3) {
			case 0:
				s.Add(c)
				model[c] = true
			case 1:
				o.Add(c)
				omodel[c] = true
			case 2: // probe, including out-of-capacity colors
				probe := r.Intn(300) - 20
				if got, want := s.Has(probe), model[probe]; got != want {
					t.Fatalf("cap %d: Has(%d) = %v, want %v", capacity, probe, got, want)
				}
			}
			if got, want := s.Has(c), model[c]; got != want {
				t.Fatalf("cap %d: Has(%d) = %v, want %v", capacity, c, got, want)
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("cap %d: Len = %d, want %d", capacity, s.Len(), len(model))
		}
		wantIntersects := false
		for k := range model {
			if omodel[k] {
				wantIntersects = true
				break
			}
		}
		if got := s.Intersects(o); got != wantIntersects {
			t.Fatalf("cap %d: Intersects = %v, want %v", capacity, got, wantIntersects)
		}
		if s.Empty() != (len(model) == 0) {
			t.Fatalf("cap %d: Empty = %v with %d colors", capacity, s.Empty(), len(model))
		}
		prev := -1
		for _, c := range s.Colors() {
			if !model[c] || c <= prev {
				t.Fatalf("cap %d: Colors() = %v inconsistent with model", capacity, s.Colors())
			}
			prev = c
		}
	}
}

// TestInlineZeroAlloc pins the inline representation's reason to exist:
// creating and operating on sets within InlineColors allocates nothing.
func TestInlineZeroAlloc(t *testing.T) {
	for _, capacity := range []int{1, 64, 80, InlineColors} {
		n := testing.AllocsPerRun(100, func() {
			s := New(capacity)
			s.Add(capacity - 1)
			if !s.Has(capacity - 1) {
				t.Fatal("lost a color")
			}
		})
		if n != 0 {
			t.Fatalf("cap %d: %v allocs per op, want 0", capacity, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { New(InlineColors + 1) }); n == 0 {
		t.Fatal("spilled set unexpectedly allocation-free (test is not measuring)")
	}
}
