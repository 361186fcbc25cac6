package deque

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nabbitc/internal/colorset"
	"nabbitc/internal/xrand"
)

const testColors = 16

func entry(v int, colors ...int) Entry[int] {
	return Entry[int]{Value: v, Colors: colorset.Of(testColors, colors...)}
}

// substrates lists every implementation with a constructor for a fresh,
// small instance.
var substrates = []struct {
	name string
	mk   func() Queue[int]
}{
	{"mutex", func() Queue[int] { return NewMutex[int](4) }},
	{"chaselev", func() Queue[int] { return NewChaseLev[int](4) }},
	{"block", func() Queue[int] { return NewBlock[int](4) }},
}

// queues returns one fresh instance of every implementation.
func queues() map[string]Queue[int] {
	m := make(map[string]Queue[int], len(substrates))
	for _, s := range substrates {
		m[s.name] = s.mk()
	}
	return m
}

// colors returns a steal filter of the given colors.
func colors(cs ...int) *colorset.Set {
	s := colorset.Of(testColors, cs...)
	return &s
}

// ownFilters returns one single-color filter per test color, built up front
// so that concurrent thieves allocate nothing per steal.
func ownFilters() []colorset.Set {
	fs := make([]colorset.Set, testColors)
	for c := range fs {
		fs[c] = colorset.Of(testColors, c)
	}
	return fs
}

func TestEmpty(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			if _, ok := q.PopBottom(); ok {
				t.Fatal("PopBottom on empty returned ok")
			}
			if _, out := q.StealTop(); out != StealEmpty {
				t.Fatalf("StealTop on empty = %v, want empty", out)
			}
			if _, out := q.Steal(colors(1), 1, nil); out != StealEmpty {
				t.Fatalf("colored Steal on empty = %v, want empty", out)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d, want 0", q.Len())
			}
		})
	}
}

func TestLIFOOwner(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				q.PushBottom(entry(i, i%testColors))
			}
			if q.Len() != 100 {
				t.Fatalf("Len = %d, want 100", q.Len())
			}
			for i := 99; i >= 0; i-- {
				e, ok := q.PopBottom()
				if !ok || e.Value != i {
					t.Fatalf("PopBottom = %v,%v, want %d", e.Value, ok, i)
				}
			}
		})
	}
}

func TestFIFOThief(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				q.PushBottom(entry(i))
			}
			for i := 0; i < 50; i++ {
				e, out := q.StealTop()
				if out != StealOK || e.Value != i {
					t.Fatalf("StealTop = %v,%v, want %d", e.Value, out, i)
				}
			}
			if _, out := q.StealTop(); out != StealEmpty {
				t.Fatal("deque should be empty")
			}
		})
	}
}

func TestColoredStealMissAndHit(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			q.PushBottom(entry(1, 3, 5))
			q.PushBottom(entry(2, 7))
			// Top item has colors {3,5}: thief of color 7 misses.
			if _, out := q.Steal(colors(7), 1, nil); out != StealMiss {
				t.Fatalf("steal color 7 = %v, want miss", out)
			}
			// Thief of color 5 hits and takes the top item.
			ents, out := q.Steal(colors(5), 1, nil)
			if out != StealOK || len(ents) != 1 || ents[0].Value != 1 {
				t.Fatalf("steal color 5 = %v,%v, want value 1", ents, out)
			}
			// Now the top is {7}.
			ents, out = q.Steal(colors(7), 1, nil)
			if out != StealOK || len(ents) != 1 || ents[0].Value != 2 {
				t.Fatalf("steal color 7 = %v,%v, want value 2", ents, out)
			}
		})
	}
}

func TestColoredStealDoesNotDisturb(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			q.PushBottom(entry(1, 2))
			for i := 0; i < 10; i++ {
				if _, out := q.Steal(colors(9), 1, nil); out != StealMiss {
					t.Fatalf("attempt %d = %v, want miss", i, out)
				}
			}
			if q.Len() != 1 {
				t.Fatalf("Len = %d after misses, want 1", q.Len())
			}
			e, ok := q.PopBottom()
			if !ok || e.Value != 1 {
				t.Fatal("owner lost its item to failed colored steals")
			}
		})
	}
}

func TestInterleavedPushPopSteal(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			q.PushBottom(entry(1))
			q.PushBottom(entry(2))
			q.PushBottom(entry(3))
			if e, out := q.StealTop(); out != StealOK || e.Value != 1 {
				t.Fatalf("steal got %v", e.Value)
			}
			if e, ok := q.PopBottom(); !ok || e.Value != 3 {
				t.Fatalf("pop got %v", e.Value)
			}
			q.PushBottom(entry(4))
			if e, out := q.StealTop(); out != StealOK || e.Value != 2 {
				t.Fatalf("steal got %v", e.Value)
			}
			if e, ok := q.PopBottom(); !ok || e.Value != 4 {
				t.Fatalf("pop got %v", e.Value)
			}
			if _, ok := q.PopBottom(); ok {
				t.Fatal("deque should be empty")
			}
		})
	}
}

func TestGrowth(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			const n = 10000
			for i := 0; i < n; i++ {
				q.PushBottom(entry(i, i%testColors))
			}
			if q.Len() != n {
				t.Fatalf("Len = %d, want %d", q.Len(), n)
			}
			// Alternate steals and pops; verify the multiset survives.
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				var e Entry[int]
				if i%2 == 0 {
					var out StealOutcome
					e, out = q.StealTop()
					if out != StealOK {
						t.Fatalf("steal %d failed: %v", i, out)
					}
				} else {
					var ok bool
					e, ok = q.PopBottom()
					if !ok {
						t.Fatalf("pop %d failed", i)
					}
				}
				if seen[e.Value] {
					t.Fatalf("value %d seen twice", e.Value)
				}
				seen[e.Value] = true
			}
		})
	}
}

// Property: any sequence of operations keeps the deque consistent with a
// reference slice model (single-threaded).
func TestQuickModelEquivalence(t *testing.T) {
	for _, impl := range substrates {
		t.Run(impl.name, func(t *testing.T) {
			f := func(ops []uint8) bool {
				q := impl.mk()
				var model []Entry[int]
				next := 0
				for _, op := range ops {
					switch op % 4 {
					case 0, 1: // push (weighted so deques fill up)
						e := entry(next, next%testColors)
						next++
						q.PushBottom(e)
						model = append(model, e)
					case 2: // pop bottom
						e, ok := q.PopBottom()
						if ok != (len(model) > 0) {
							return false
						}
						if ok {
							want := model[len(model)-1]
							model = model[:len(model)-1]
							if e.Value != want.Value {
								return false
							}
						}
					case 3: // steal top
						e, out := q.StealTop()
						if (out == StealOK) != (len(model) > 0) {
							return false
						}
						if out == StealOK {
							want := model[0]
							model = model[1:]
							if e.Value != want.Value {
								return false
							}
						}
					}
				}
				return q.Len() == len(model)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Concurrent stress: one owner pushing/popping, many thieves stealing.
// Every pushed value must be consumed exactly once.
func TestConcurrentStress(t *testing.T) {
	for _, impl := range substrates {
		t.Run(impl.name, func(t *testing.T) {
			const (
				total   = 50000
				thieves = 6
			)
			q := impl.mk()
			var consumed [total]atomic.Int32
			var taken atomic.Int64
			done := make(chan struct{})

			var wg sync.WaitGroup
			for th := 0; th < thieves; th++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					r := xrand.NewWorker(99, id)
					own := ownFilters()
					buf := make([]Entry[int], 0, 1)
					for {
						var ents []Entry[int]
						var out StealOutcome
						if r.Intn(2) == 0 {
							ents, out = q.Steal(&own[r.Intn(testColors)], 1, buf[:0])
						} else {
							ents, out = q.Steal(nil, 1, buf[:0])
						}
						if out == StealOK {
							consumed[ents[0].Value].Add(1)
							taken.Add(1)
						}
						select {
						case <-done:
							// Drain whatever remains.
							for {
								e, out := q.StealTop()
								if out != StealOK {
									return
								}
								consumed[e.Value].Add(1)
								taken.Add(1)
							}
						default:
						}
					}
				}(th)
			}

			// Owner: pushes everything, popping intermittently.
			r := xrand.New(7)
			for i := 0; i < total; i++ {
				q.PushBottom(entry(i, i%testColors))
				if r.Intn(3) == 0 {
					if e, ok := q.PopBottom(); ok {
						consumed[e.Value].Add(1)
						taken.Add(1)
					}
				}
			}
			// Owner drains its own deque.
			for {
				e, ok := q.PopBottom()
				if !ok {
					break
				}
				consumed[e.Value].Add(1)
				taken.Add(1)
			}
			close(done)
			wg.Wait()
			// Final drain by the main goroutine for anything missed
			// between the owner's drain and thief shutdown.
			for {
				e, out := q.StealTop()
				if out != StealOK {
					break
				}
				consumed[e.Value].Add(1)
				taken.Add(1)
			}

			if got := taken.Load(); got != total {
				t.Fatalf("consumed %d items, want %d", got, total)
			}
			for i := 0; i < total; i++ {
				if c := consumed[i].Load(); c != 1 {
					t.Fatalf("value %d consumed %d times", i, c)
				}
			}
		})
	}
}

// Colored concurrent stress: thieves only steal their own color and must
// never receive an item whose mask excludes that color.
func TestConcurrentColoredNoFalseSteal(t *testing.T) {
	for _, impl := range substrates {
		t.Run(impl.name, func(t *testing.T) {
			const total = 20000
			q := impl.mk()
			done := make(chan struct{})
			var wg sync.WaitGroup
			var bad atomic.Int64
			for th := 0; th < 4; th++ {
				wg.Add(1)
				go func(color int) {
					defer wg.Done()
					for {
						ents, out := q.Steal(colors(color), 1, nil)
						if out == StealOK && !ents[0].Colors.Has(color) {
							bad.Add(1)
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}(th)
			}
			for i := 0; i < total; i++ {
				q.PushBottom(entry(i, i%8)) // colors 0..7, thieves 0..3
			}
			for {
				if _, ok := q.PopBottom(); !ok {
					break
				}
			}
			close(done)
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d colored steals returned wrong-color items", bad.Load())
			}
		})
	}
}

func TestStealTopMasked(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			if _, out := q.Steal(colors(1), 1, nil); out != StealEmpty {
				t.Fatalf("masked steal on empty = %v, want empty", out)
			}
			q.PushBottom(entry(1, 3, 5))
			q.PushBottom(entry(2, 7))
			// Mask {6,7} misses the top {3,5}.
			if _, out := q.Steal(colors(6, 7), 1, nil); out != StealMiss {
				t.Fatalf("disjoint mask = %v, want miss", out)
			}
			if q.Len() != 2 {
				t.Fatalf("Len = %d after miss, want 2", q.Len())
			}
			// Mask {5,9} intersects {3,5}.
			ents, out := q.Steal(colors(5, 9), 1, nil)
			if out != StealOK || len(ents) != 1 || ents[0].Value != 1 {
				t.Fatalf("intersecting mask = %v,%v, want value 1", ents, out)
			}
		})
	}
}

func TestStealHalfSemantics(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			if _, out := q.Steal(nil, 4, nil); out != StealEmpty {
				t.Fatalf("steal-half on empty = %v, want empty", out)
			}
			for i := 0; i < 10; i++ {
				q.PushBottom(entry(i, i%testColors))
			}
			// Half of 10 is 5, capped at 3.
			ents, out := q.Steal(nil, 3, nil)
			if out != StealOK || len(ents) != 3 {
				t.Fatalf("steal-half = %d items,%v, want 3,ok", len(ents), out)
			}
			for i, e := range ents {
				if e.Value != i {
					t.Fatalf("batch[%d] = %d, want %d (oldest first)", i, e.Value, i)
				}
			}
			// 7 remain; uncapped takes ceil(7/2) = 4.
			ents, out = q.Steal(nil, 0, nil)
			if out != StealOK || len(ents) != 4 {
				t.Fatalf("uncapped steal-half = %d items,%v, want 4,ok", len(ents), out)
			}
			if q.Len() != 3 {
				t.Fatalf("Len = %d, want 3", q.Len())
			}
			// A single remaining item is still stealable as a "half".
			q2 := queues()[name]
			q2.PushBottom(entry(42, 1))
			ents, out = q2.Steal(nil, 8, nil)
			if out != StealOK || len(ents) != 1 || ents[0].Value != 42 {
				t.Fatalf("steal-half of 1 = %v,%v", ents, out)
			}
		})
	}
}

func TestStealHalfColored(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			q.PushBottom(entry(0, 3))
			q.PushBottom(entry(1, 9))
			q.PushBottom(entry(2, 9))
			q.PushBottom(entry(3, 9))
			// Top has color 3: thief of color 9 misses, nothing taken.
			if _, out := q.Steal(colors(9), 4, nil); out != StealMiss {
				t.Fatalf("colored steal-half = %v, want miss", out)
			}
			if q.Len() != 4 {
				t.Fatalf("Len = %d after miss, want 4", q.Len())
			}
			// Thief of color 3 hits and drags half the deque along, even
			// though the later items are color 9.
			ents, out := q.Steal(colors(3), 4, nil)
			if out != StealOK || len(ents) != 2 {
				t.Fatalf("colored steal-half = %d items,%v, want 2,ok", len(ents), out)
			}
			if ents[0].Value != 0 || ents[1].Value != 1 {
				t.Fatalf("batch = %v, want values 0,1", ents)
			}
		})
	}
}

// TestStealContract is the one table for Steal on every substrate: each
// filter (none, the thief's own color, its socket's colors, and one that
// misses the oldest item but matches every item behind it) × each cap
// (single item, 3, uncapped) × each depth (empty, one item, a short deque,
// and one deep enough that the block deque's oldest block is sealed). The
// oldest item has colors {2,5}, the rest {9}; the thief's own color is 5
// and its socket {0,1,2,3}. It checks the outcome and
// the item count — min(ceil(n/2), max), or on the block deque up to a
// whole sealed block — oldest-first order, that the filter gates only the
// oldest item, that a miss takes nothing however often it is repeated,
// that what into held is kept, and that the items left are exactly the
// rest, in order.
func TestStealContract(t *testing.T) {
	filters := []struct {
		name string
		f    *colorset.Set
		hits bool
	}{
		{"any", nil, true},
		{"own", colors(5), true},
		{"socket", colors(0, 1, 2, 3), true},
		{"disjoint", colors(9), false},
	}
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			for _, f := range filters {
				for _, max := range []int{1, 3, 0} {
					for _, depth := range []int{0, 1, 5, blockSize + 8} {
						name := fmt.Sprintf("%s/max%d/depth%d", f.name, max, depth)
						q := sub.mk()
						for i := 0; i < depth; i++ {
							if i == 0 {
								q.PushBottom(entry(i, 2, 5))
							} else {
								q.PushBottom(entry(i, 9))
							}
						}
						want := 0
						if depth > 0 && f.hits {
							want = (depth + 1) / 2
							if sub.name == "block" && depth > blockSize {
								want = blockSize // the sealed oldest block
							}
							if max > 0 && want > max {
								want = max
							}
						}
						wantOut := StealOK
						switch {
						case depth == 0:
							wantOut = StealEmpty
						case !f.hits:
							wantOut = StealMiss
						}
						for try := 0; try < 3; try++ {
							into := []Entry[int]{entry(-1)}
							got, out := q.Steal(f.f, max, into)
							if out != wantOut {
								t.Fatalf("%s: outcome %v, want %v", name, out, wantOut)
							}
							if len(got) != 1+want || got[0].Value != -1 {
								t.Fatalf("%s: into came back as %d entries led by %v, want the sentinel and %d items",
									name, len(got), got[0].Value, want)
							}
							for i, e := range got[1:] {
								if e.Value != i {
									t.Fatalf("%s: item %d is %d, want %d (oldest first)", name, i, e.Value, i)
								}
							}
							if out != StealMiss {
								break
							}
						}
						if q.Len() != depth-want {
							t.Fatalf("%s: Len %d after the steal, want %d", name, q.Len(), depth-want)
						}
						for i := want; i < depth; i++ {
							ents, out := q.Steal(nil, 1, nil)
							if out != StealOK || ents[0].Value != i {
								t.Fatalf("%s: next oldest left = %v (%v), want %d", name, ents, out, i)
							}
						}
					}
				}
			}
		})
	}
}

// Concurrent steal-half stress (the race-detector test for the batched
// op): one owner pushing and intermittently popping, several thieves
// grabbing batches. Every pushed value must be consumed exactly once —
// nothing lost, nothing duplicated.
func TestConcurrentStealHalfStress(t *testing.T) {
	impls := []struct {
		name string
		mk   func() Queue[int]
	}{
		{"mutex", func() Queue[int] { return NewMutex[int](4) }},
		{"chaselev", func() Queue[int] { return NewChaseLev[int](4) }},
		{"block", func() Queue[int] { return NewBlock[int](4) }},
	}
	total := 40000
	if testing.Short() {
		total = 10000
	}
	for _, impl := range impls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			const thieves = 6
			q := impl.mk()
			consumed := make([]atomic.Int32, total)
			var taken atomic.Int64
			done := make(chan struct{})

			var wg sync.WaitGroup
			for th := 0; th < thieves; th++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					r := xrand.NewWorker(41, id)
					own := ownFilters()
					consume := func(ents []Entry[int]) {
						for _, e := range ents {
							consumed[e.Value].Add(1)
							taken.Add(1)
						}
					}
					for {
						var ents []Entry[int]
						var out StealOutcome
						if r.Intn(2) == 0 {
							ents, out = q.Steal(nil, r.Intn(8)+1, nil)
						} else {
							ents, out = q.Steal(&own[r.Intn(testColors)], r.Intn(8)+1, nil)
						}
						if out == StealOK {
							if len(ents) == 0 {
								t.Error("StealOK with empty batch")
								return
							}
							consume(ents)
						}
						select {
						case <-done:
							for {
								ents, out := q.Steal(nil, 0, nil)
								if out != StealOK {
									return
								}
								consume(ents)
							}
						default:
						}
					}
				}(th)
			}

			r := xrand.New(13)
			for i := 0; i < total; i++ {
				q.PushBottom(entry(i, i%testColors))
				if r.Intn(3) == 0 {
					if e, ok := q.PopBottom(); ok {
						consumed[e.Value].Add(1)
						taken.Add(1)
					}
				}
			}
			for {
				e, ok := q.PopBottom()
				if !ok {
					break
				}
				consumed[e.Value].Add(1)
				taken.Add(1)
			}
			close(done)
			wg.Wait()
			for {
				ents, out := q.Steal(nil, 0, nil)
				if out != StealOK {
					break
				}
				for _, e := range ents {
					consumed[e.Value].Add(1)
					taken.Add(1)
				}
			}

			if got := taken.Load(); got != int64(total) {
				t.Fatalf("consumed %d items, want %d", got, total)
			}
			for i := 0; i < total; i++ {
				if c := consumed[i].Load(); c != 1 {
					t.Fatalf("value %d consumed %d times", i, c)
				}
			}
		})
	}
}

// Colored batches must start with an item containing the thief's color.
func TestConcurrentColoredBatchFirstItem(t *testing.T) {
	for _, impl := range substrates {
		t.Run(impl.name, func(t *testing.T) {
			total := 20000
			if testing.Short() {
				total = 5000
			}
			q := impl.mk()
			done := make(chan struct{})
			var wg sync.WaitGroup
			var bad atomic.Int64
			for th := 0; th < 4; th++ {
				wg.Add(1)
				go func(color int) {
					defer wg.Done()
					for {
						ents, out := q.Steal(colors(color), 4, nil)
						if out == StealOK && !ents[0].Colors.Has(color) {
							bad.Add(1)
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}(th)
			}
			for i := 0; i < total; i++ {
				q.PushBottom(entry(i, i%8))
			}
			for {
				if _, ok := q.PopBottom(); !ok {
					break
				}
			}
			close(done)
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d colored batches led with a wrong-color item", bad.Load())
			}
		})
	}
}

func BenchmarkPushPopMutex(b *testing.B) {
	benchPushPop(b, NewMutex[int](64))
}

func BenchmarkPushPopChaseLev(b *testing.B) {
	benchPushPop(b, NewChaseLev[int](64))
}

func BenchmarkPushPopBlock(b *testing.B) {
	benchPushPop(b, NewBlock[int](64))
}

func benchPushPop(b *testing.B, q Queue[int]) {
	e := entry(1, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PushBottom(e)
		q.PopBottom()
	}
}

func BenchmarkStealContention(b *testing.B) {
	for _, impl := range []struct {
		name string
		q    Queue[int]
	}{
		{"mutex", NewMutex[int](64)},
		{"chaselev", NewChaseLev[int](64)},
		{"block", NewBlock[int](64)},
	} {
		b.Run(impl.name, func(b *testing.B) {
			q := impl.q
			b.ReportAllocs()
			for i := 0; i < 1024; i++ {
				q.PushBottom(entry(i, i%testColors))
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					// Measures the contended steal path; once drained the
					// loop measures the empty-check path, which is also on
					// the idle-worker hot path.
					q.StealTop()
				}
			})
		})
	}
}

// TestUnboxedSlotIntegrity is the race-stress test for the unboxed
// Chase–Lev slot protocol: one owner pushing and popping over a deliberately
// tiny initial buffer (forcing grows and heavy slot recycling), many
// thieves doing colored steals. Each entry's color mask encodes its value,
// so a torn or recycled-slot read — the failure mode the reader-count
// protocol exists to prevent — surfaces as a value/mask mismatch, not
// just a lost item. Run under -race this also proves the protocol is
// data-race-free, not merely "benign".
func TestUnboxedSlotIntegrity(t *testing.T) {
	total := 30000
	if testing.Short() {
		total = 8000
	}
	const thieves = 4
	q := NewChaseLev[int](1) // minimum buffer: maximum recycling pressure
	consumed := make([]atomic.Int32, total)
	var bad atomic.Int64
	var taken atomic.Int64
	done := make(chan struct{})

	check := func(e Entry[int]) {
		if !e.Colors.Has(e.Value % testColors) {
			bad.Add(1)
		}
		consumed[e.Value].Add(1)
		taken.Add(1)
	}

	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.NewWorker(7, id)
			own := ownFilters()
			buf := make([]Entry[int], 0, 1)
			for {
				color := r.Intn(testColors)
				if ents, out := q.Steal(&own[color], 1, buf[:0]); out == StealOK {
					if !ents[0].Colors.Has(color) {
						bad.Add(1)
					}
					check(ents[0])
				}
				select {
				case <-done:
					for {
						e, out := q.StealTop()
						if out == StealEmpty {
							return
						}
						if out == StealOK {
							check(e)
						}
					}
				default:
				}
			}
		}(th)
	}

	r := xrand.New(3)
	for i := 0; i < total; i++ {
		q.PushBottom(entry(i, i%testColors))
		// Pop in bursts so bottom oscillates across slot boundaries and
		// the same index is republished many times.
		for r.Intn(4) == 0 {
			e, ok := q.PopBottom()
			if !ok {
				break
			}
			check(e)
		}
	}
	for {
		e, ok := q.PopBottom()
		if !ok {
			break
		}
		check(e)
	}
	close(done)
	wg.Wait()

	if bad.Load() != 0 {
		t.Fatalf("%d entries had a value/mask mismatch (torn slot read)", bad.Load())
	}
	if got := taken.Load(); got != int64(total) {
		t.Fatalf("consumed %d items, want %d", got, total)
	}
	for i := 0; i < total; i++ {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("value %d consumed %d times", i, c)
		}
	}
}
