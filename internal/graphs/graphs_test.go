package graphs

import (
	"testing"
	"testing/quick"
)

func smallGraph() *CSR {
	// 0 -> 1,2 ; 1 -> 2 ; 2 -> 0 ; 3 -> (none)
	return &CSR{Offsets: []int64{0, 2, 3, 4, 4}, Edges: []int32{1, 2, 2, 0}}
}

func TestCSRBasics(t *testing.T) {
	g := smallGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NV() != 4 || g.NE() != 4 {
		t.Fatalf("NV=%d NE=%d", g.NV(), g.NE())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 0 {
		t.Fatal("out-degrees wrong")
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := smallGraph()
	g.Edges[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	g = smallGraph()
	g.Offsets[1] = 5
	if err := g.Validate(); err == nil {
		t.Fatal("decreasing offsets accepted")
	}
}

func TestTranspose(t *testing.T) {
	g := smallGraph()
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NE() != g.NE() {
		t.Fatalf("transpose NE = %d, want %d", tr.NE(), g.NE())
	}
	// In g: edges into 2 come from 0 and 1.
	nb := tr.Neighbors(2)
	if len(nb) != 2 {
		t.Fatalf("transpose Neighbors(2) = %v", nb)
	}
	seen := map[int32]bool{}
	for _, v := range nb {
		seen[v] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("transpose Neighbors(2) = %v, want {0,1}", nb)
	}
}

func TestTransposeInvolution(t *testing.T) {
	cfg := UK2002(2000)
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tt := g.Transpose().Transpose()
	if tt.NE() != g.NE() || tt.NV() != g.NV() {
		t.Fatal("double transpose changed shape")
	}
	// Edge multisets per vertex must match.
	for v := 0; v < g.NV(); v++ {
		a, b := g.Neighbors(v), tt.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", v)
		}
		ca := map[int32]int{}
		for _, x := range a {
			ca[x]++
		}
		for _, x := range b {
			ca[x]--
		}
		for _, c := range ca {
			if c != 0 {
				t.Fatalf("vertex %d edge multiset changed", v)
			}
		}
	}
}

func TestBlockMapping(t *testing.T) {
	f := func(vRaw uint16, nbRaw uint8) bool {
		nv := 10000
		v := int(vRaw) % nv
		nblocks := int(nbRaw)%100 + 1
		b := BlockOf(v, nv, nblocks)
		if b < 0 || b >= nblocks {
			return false
		}
		lo, hi := BlockRange(b, nv, nblocks)
		return lo <= v && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangesPartition(t *testing.T) {
	nv, nblocks := 10007, 64
	prev := 0
	for b := 0; b < nblocks; b++ {
		lo, hi := BlockRange(b, nv, nblocks)
		if lo != prev {
			t.Fatalf("block %d starts at %d, want %d", b, lo, prev)
		}
		prev = hi
	}
	if prev != nv {
		t.Fatalf("blocks end at %d, want %d", prev, nv)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := UK2002(3000)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NE() != b.NE() {
		t.Fatalf("edge counts differ: %d vs %d", a.NE(), b.NE())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestGenerateValid(t *testing.T) {
	for name, cfg := range map[string]WebConfig{
		"uk2002":  UK2002(5000),
		"twitter": Twitter2010(5000),
		"uk2007":  UK2007(5000),
	} {
		g, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := g.Stats()
		if st.AvgOut < cfg.AvgOutDegree/2 || st.AvgOut > cfg.AvgOutDegree*2 {
			t.Fatalf("%s: avg out-degree %.1f far from target %.1f",
				name, st.AvgOut, cfg.AvgOutDegree)
		}
		// No self-loops.
		for v := 0; v < g.NV(); v++ {
			for _, d := range g.Neighbors(v) {
				if int(d) == v {
					t.Fatalf("%s: self-loop at %d", name, v)
				}
			}
		}
	}
}

func TestTwitterSkewHeavier(t *testing.T) {
	uk, err := Generate(UK2002(20000))
	if err != nil {
		t.Fatal(err)
	}
	tw, err := Generate(Twitter2010(20000))
	if err != nil {
		t.Fatal(err)
	}
	ukStats, twStats := uk.Stats(), tw.Stats()
	// The paper's twitter-2010 signature: much larger max out-degree
	// relative to the average.
	ukRatio := float64(ukStats.MaxOut) / ukStats.AvgOut
	twRatio := float64(twStats.MaxOut) / twStats.AvgOut
	if twRatio <= ukRatio*2 {
		t.Fatalf("twitter max/avg ratio %.0f not well above uk %.0f", twRatio, ukRatio)
	}
}

func TestLocalityKeepsEdgesNearby(t *testing.T) {
	nv := 20000
	g, err := Generate(UK2002(nv))
	if err != nil {
		t.Fatal(err)
	}
	window := UK2002(nv).LocalWindow
	near := 0
	for v := 0; v < nv; v++ {
		for _, d := range g.Neighbors(v) {
			dist := int(d) - v
			if dist < 0 {
				dist = -dist
			}
			if dist > nv/2 {
				dist = nv - dist // wraparound distance
			}
			if dist <= window {
				near++
			}
		}
	}
	frac := float64(near) / float64(g.NE())
	if frac < 0.7 {
		t.Fatalf("only %.0f%% of uk edges local, want most", frac*100)
	}
}

func TestInBlocks(t *testing.T) {
	g := smallGraph() // 4 vertices, 2 blocks of 2: block0={0,1}, block1={2,3}
	sets := g.InBlocks(2)
	// Edges: 0->1 (b0->b0), 0->2 (b0->b1), 1->2 (b0->b1), 2->0 (b1->b0).
	want0 := []int32{0, 1} // into block 0: from b0 (0->1) and b1 (2->0)
	want1 := []int32{0}    // into block 1: from b0 only
	if len(sets[0]) != len(want0) || sets[0][0] != want0[0] || sets[0][1] != want0[1] {
		t.Fatalf("InBlocks[0] = %v, want %v", sets[0], want0)
	}
	if len(sets[1]) != 1 || sets[1][0] != want1[0] {
		t.Fatalf("InBlocks[1] = %v, want %v", sets[1], want1)
	}
}

func TestInBlocksCoverAllEdges(t *testing.T) {
	g, err := Generate(UK2002(4000))
	if err != nil {
		t.Fatal(err)
	}
	const nblocks = 16
	sets := g.InBlocks(nblocks)
	member := make([][]bool, nblocks)
	for b := range member {
		member[b] = make([]bool, nblocks)
		for _, sb := range sets[b] {
			member[b][sb] = true
		}
	}
	nv := g.NV()
	for src := 0; src < nv; src++ {
		sb := BlockOf(src, nv, nblocks)
		for _, dst := range g.Neighbors(src) {
			db := BlockOf(int(dst), nv, nblocks)
			if !member[db][sb] {
				t.Fatalf("edge block pair (%d->%d) missing from InBlocks", sb, db)
			}
		}
	}
}

func TestStats(t *testing.T) {
	g := smallGraph()
	st := g.Stats()
	if st.NV != 4 || st.NE != 4 || st.MaxOut != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []WebConfig{
		{NV: 0, AvgOutDegree: 5, MaxOutDegree: 10, LocalWindow: 1, OutSkew: 1, InSkew: 1},
		{NV: 100, AvgOutDegree: 0, MaxOutDegree: 10, LocalWindow: 1, OutSkew: 1, InSkew: 1},
		{NV: 100, AvgOutDegree: 5, MaxOutDegree: 0, LocalWindow: 1, OutSkew: 1, InSkew: 1},
		{NV: 100, AvgOutDegree: 5, MaxOutDegree: 10, LocalWindow: 1, OutSkew: 1, InSkew: 1, Locality: 1.5},
		{NV: 100, AvgOutDegree: 5, MaxOutDegree: 10, LocalWindow: 0, OutSkew: 1, InSkew: 1},
		{NV: 100, AvgOutDegree: 5, MaxOutDegree: 10, LocalWindow: 1, OutSkew: 0, InSkew: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d accepted: %+v", i, c)
		}
	}
}

func BenchmarkGenerateUK(b *testing.B) {
	cfg := UK2002(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranspose(b *testing.B) {
	g, err := Generate(UK2002(10000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Transpose()
	}
}
