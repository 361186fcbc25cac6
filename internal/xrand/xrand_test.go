package xrand

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestSeedWorkerStreams(t *testing.T) {
	seen := map[uint64]int{}
	r := New(0)
	for id := 0; id < 80; id++ {
		r.SeedWorker(7, id)
		v := r.Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("workers %d and %d share first output", prev, id)
		}
		seen[v] = id
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 100; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformish(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for c, got := range counts {
		if got < want*9/10 || got > want*11/10 {
			t.Fatalf("bucket %d: %d draws, want about %d", c, got, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for n := 0; n < 50; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestQuickPerm(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the canonical SplitMix64.
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(31)
	z := NewZipf(r, 1000, 1.2)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Fatalf("Zipf counts not decreasing: c0=%d c10=%d c500=%d",
			counts[0], counts[10], counts[500])
	}
	// Head should dominate for s=1.2.
	if counts[0] < draws/20 {
		t.Fatalf("Zipf head too light: %d of %d", counts[0], draws)
	}
}

func TestZipfRange(t *testing.T) {
	z := NewZipf(New(1), 17, 0.8)
	for i := 0; i < 10000; i++ {
		v := z.Draw()
		if v < 0 || v >= 17 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0": func() { NewZipf(New(1), 0, 1) },
		"s=0": func() { NewZipf(New(1), 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(80)
	}
	_ = sink
}

// Intn is the high word of the 128-bit product of the next Uint64 and n,
// which math/big computes independently: the victim draw both machines
// make is that product and nothing else.
func TestIntnIsHighWordOfProduct(t *testing.T) {
	ns := []int{1, 2, 3, 7, 10, 79, 80, 1 << 20, 1<<31 - 1, math.MaxInt / 3, math.MaxInt}
	a, b := New(7), New(7)
	var x, y, hi big.Int
	for i := 0; i < 100_000; i++ {
		n := ns[i%len(ns)]
		got := a.Intn(n)
		hi.Rsh(hi.Mul(x.SetUint64(b.Uint64()), y.SetInt64(int64(n))), 64)
		if want := hi.Uint64(); uint64(got) != want {
			t.Fatalf("draw %d: Intn(%d) = %d, want %d", i, n, got, want)
		}
	}
}
