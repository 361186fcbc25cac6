package deque

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nabbitc/internal/colorset"
	"nabbitc/internal/xrand"
)

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

// beneathQueue is what the PushBeneath tests drive: Mutex implements it,
// and beneathRing drives the Ring's insert the way Mutex does.
type beneathQueue interface {
	PushBottom(e Entry[int])
	PushBeneath(e Entry[int], k int)
	PopBottom() (Entry[int], bool)
	Steal(filter *colorset.Set, max int, into []Entry[int]) ([]Entry[int], StealOutcome)
	Len() int
}

type beneathRing struct{ *Ring[int] }

func (r beneathRing) PushBeneath(e Entry[int], k int) { *r.beneath(k) = e }

// TestPushBeneath tables the insert beneath the k newest entries on both
// deques the machines run: each row pushes, steals (to move the head and
// wrap the buffer) and pushes again, inserts 99 beneath k, and then checks
// the order in which pops return everything.
func TestPushBeneath(t *testing.T) {
	rows := []struct {
		name   string
		size   int   // initial buffer, a power of two
		push   []int // pushed first
		steals int   // then stolen one at a time
		more   []int // then pushed
		k      int
		want   []int // pop order after the insert
		grows  int64
	}{
		{name: "k=0 is PushBottom", size: 8, push: []int{1, 2, 3, 4}, k: 0, want: []int{99, 4, 3, 2, 1}},
		{name: "0<k<n", size: 8, push: []int{1, 2, 3, 4}, k: 2, want: []int{4, 3, 99, 2, 1}},
		{name: "k=n lands at the top", size: 8, push: []int{1, 2, 3, 4}, k: 4, want: []int{4, 3, 2, 1, 99}},
		{name: "k>n lands at the top", size: 8, push: []int{1, 2, 3, 4}, k: 9, want: []int{4, 3, 2, 1, 99}},
		{name: "empty", size: 8, k: 3, want: []int{99}},
		{name: "wrapped", size: 8, push: []int{1, 2, 3, 4, 5, 6}, steals: 5, more: []int{7, 8, 9, 10}, k: 3,
			want: []int{10, 9, 8, 99, 7, 6}},
		{name: "wrapped, top", size: 8, push: []int{1, 2, 3, 4, 5, 6}, steals: 5, more: []int{7, 8, 9, 10}, k: 5,
			want: []int{10, 9, 8, 7, 6, 99}},
		{name: "grows", size: 4, push: []int{1, 2, 3, 4}, k: 2, want: []int{4, 3, 99, 2, 1}, grows: 1},
		{name: "wrapped, grows", size: 4, push: []int{1, 2, 3}, steals: 2, more: []int{4, 5, 6}, k: 1,
			want: []int{6, 99, 5, 4, 3}, grows: 1},
	}
	impls := []struct {
		name string
		mk   func(size int) (beneathQueue, func() int64)
	}{
		{"ring", func(size int) (beneathQueue, func() int64) {
			r := NewRing(make([]Entry[int], size))
			return beneathRing{&r}, func() int64 { return r.grows }
		}},
		{"mutex", func(size int) (beneathQueue, func() int64) {
			m := NewMutex[int](size)
			return m, m.Grows
		}},
	}
	for _, impl := range impls {
		for _, row := range rows {
			t.Run(impl.name+"/"+row.name, func(t *testing.T) {
				q, grows := impl.mk(row.size)
				for _, v := range row.push {
					q.PushBottom(entry(v))
				}
				for i := 0; i < row.steals; i++ {
					if _, out := q.Steal(nil, 1, nil); out != StealOK {
						t.Fatalf("steal %d: %v", i, out)
					}
				}
				for _, v := range row.more {
					q.PushBottom(entry(v))
				}
				q.PushBeneath(entry(99), row.k)
				if m, ok := q.(*Mutex[int]); ok && m.OwnerLen() != m.Len() {
					t.Fatalf("OwnerLen = %d, Len = %d", m.OwnerLen(), m.Len())
				}
				var got []int
				for {
					e, ok := q.PopBottom()
					if !ok {
						break
					}
					got = append(got, e.Value)
				}
				if fmt.Sprint(got) != fmt.Sprint(row.want) {
					t.Errorf("pops returned %v, want %v", got, row.want)
				}
				if g := grows(); g != row.grows {
					t.Errorf("%d grows, want %d", g, row.grows)
				}
				if m, ok := q.(*Mutex[int]); ok && m.OwnerLen() != 0 {
					t.Errorf("drained deque: OwnerLen = %d", m.OwnerLen())
				}
			})
		}
	}
}

// TestPushBeneathStress races thieves' Steal against an owner that pushes,
// inserts beneath its newest entries and pops: every entry must come out
// exactly once, and once the thieves have stopped the owner's lock-free
// length must agree with the locked one.
func TestPushBeneathStress(t *testing.T) {
	total := 40000
	if testing.Short() {
		total = 10000
	}
	const thieves = 4
	q := NewMutex[int](4)
	consumed := make([]atomic.Int32, total)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(0)
			r.SeedWorker(5, id)
			buf := make([]Entry[int], 0, 4)
			for {
				ents, _ := q.Steal(nil, 1+r.Intn(4), buf[:0])
				for _, e := range ents {
					consumed[e.Value].Add(1)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(th)
	}
	r := xrand.New(11)
	for i := 0; i < total; i++ {
		if r.Intn(2) == 0 {
			q.PushBottom(entry(i))
		} else {
			q.PushBeneath(entry(i), r.Intn(6))
		}
		if q.OwnerLen() < 0 {
			t.Fatalf("OwnerLen = %d", q.OwnerLen())
		}
		if r.Intn(3) == 0 {
			if e, ok := q.PopBottom(); ok {
				consumed[e.Value].Add(1)
			}
		}
	}
	close(done)
	wg.Wait()
	if q.OwnerLen() != q.Len() {
		t.Fatalf("OwnerLen = %d, Len = %d with no thief running", q.OwnerLen(), q.Len())
	}
	for {
		e, ok := q.PopBottom()
		if !ok {
			break
		}
		consumed[e.Value].Add(1)
	}
	for i := range consumed {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("entry %d came out %d times", i, c)
		}
	}
}
