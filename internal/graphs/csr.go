// Package graphs provides compressed sparse row directed graphs and
// synthetic web-crawl generators for the PageRank benchmarks.
//
// The paper evaluates PageRank on three web crawls from the Laboratory for
// Web Algorithmics — uk-2002 (18M vertices / 298M edges), twitter-2010
// (41M / 1.47G), and uk-2007-05 (105M / 3.74G). Those datasets are
// multi-gigabyte downloads; this package substitutes scaled synthetic
// graphs with the structural properties that drive the paper's scheduling
// results: Zipf-skewed degrees (twitter-2010 markedly heavier — the paper
// singles out its "much larger maximum out-degree"), and the link locality
// of URL-ordered crawls (most links stay near the source page) that makes
// block coloring meaningful for the uk graphs.
package graphs

import (
	"fmt"
	"sort"
)

// CSR is a directed graph in compressed sparse row form.
type CSR struct {
	// Offsets has length NV()+1; vertex v's out-edges are
	// Edges[Offsets[v]:Offsets[v+1]].
	Offsets []int64
	// Edges holds edge targets.
	Edges []int32
}

// NV returns the vertex count.
func (g *CSR) NV() int { return len(g.Offsets) - 1 }

// NE returns the edge count.
func (g *CSR) NE() int64 { return g.Offsets[g.NV()] }

// OutDegree returns vertex v's out-degree.
func (g *CSR) OutDegree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns v's out-edge targets. Callers must not modify the
// returned slice.
func (g *CSR) Neighbors(v int) []int32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// Validate checks structural invariants.
func (g *CSR) Validate() error {
	if len(g.Offsets) == 0 {
		return fmt.Errorf("graphs: empty offsets")
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graphs: offsets[0] = %d", g.Offsets[0])
	}
	nv := g.NV()
	for v := 0; v < nv; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graphs: offsets decrease at %d", v)
		}
	}
	if g.Offsets[nv] != int64(len(g.Edges)) {
		return fmt.Errorf("graphs: offsets end %d != %d edges", g.Offsets[nv], len(g.Edges))
	}
	for i, t := range g.Edges {
		if t < 0 || int(t) >= nv {
			return fmt.Errorf("graphs: edge %d targets %d outside [0,%d)", i, t, nv)
		}
	}
	return nil
}

// Transpose returns the reverse graph (every edge u→v becomes v→u).
func (g *CSR) Transpose() *CSR {
	nv := g.NV()
	t := &CSR{Offsets: make([]int64, nv+1), Edges: make([]int32, g.NE())}
	// Count in-degrees.
	for _, dst := range g.Edges {
		t.Offsets[dst+1]++
	}
	for v := 0; v < nv; v++ {
		t.Offsets[v+1] += t.Offsets[v]
	}
	cursor := make([]int64, nv)
	copy(cursor, t.Offsets[:nv])
	for src := 0; src < nv; src++ {
		for _, dst := range g.Neighbors(src) {
			t.Edges[cursor[dst]] = int32(src)
			cursor[dst]++
		}
	}
	return t
}

// DegreeStats summarizes a graph's out-degree distribution.
type DegreeStats struct {
	NV        int
	NE        int64
	MaxOut    int
	AvgOut    float64
	MedianOut int
	// P99Out is the 99th-percentile out-degree; the gap between it and
	// MaxOut is the skew signature that separates twitter-2010 from the
	// uk crawls.
	P99Out int
}

// Stats computes degree statistics.
func (g *CSR) Stats() DegreeStats {
	nv := g.NV()
	degs := make([]int, nv)
	maxOut := 0
	for v := 0; v < nv; v++ {
		d := g.OutDegree(v)
		degs[v] = d
		if d > maxOut {
			maxOut = d
		}
	}
	sort.Ints(degs)
	st := DegreeStats{
		NV:     nv,
		NE:     g.NE(),
		MaxOut: maxOut,
		AvgOut: float64(g.NE()) / float64(nv),
	}
	if nv > 0 {
		st.MedianOut = degs[nv/2]
		st.P99Out = degs[nv-1-nv/100]
	}
	return st
}

// BlockOf returns the block index of vertex v when nv vertices are divided
// into nblocks contiguous blocks (the task decomposition PageRank uses).
// It is the exact inverse of BlockRange: v always falls inside
// BlockRange(BlockOf(v, nv, nblocks), nv, nblocks). The naive v*nblocks/nv
// is NOT that inverse — it misplaces boundary vertices (e.g. vertex 3906
// of 10000 over 64 blocks lands in block 24, whose range ends at 3906).
func BlockOf(v, nv, nblocks int) int {
	// Largest b with b*nv/nblocks <= v, i.e. ceil((v+1)*nblocks/nv) - 1.
	return ((v+1)*nblocks - 1) / nv
}

// BlockRange returns the vertex range [lo, hi) of block b.
func BlockRange(b, nv, nblocks int) (lo, hi int) {
	return b * nv / nblocks, (b + 1) * nv / nblocks
}

// InBlocks returns, for each block, the sorted set of distinct blocks with
// at least one edge into it — the dependence structure of a blocked
// push-style PageRank iteration.
func (g *CSR) InBlocks(nblocks int) [][]int32 {
	nv := g.NV()
	mark := make([]bool, nblocks*nblocks)
	for src := 0; src < nv; src++ {
		sb := BlockOf(src, nv, nblocks)
		for _, dst := range g.Neighbors(src) {
			db := BlockOf(int(dst), nv, nblocks)
			mark[db*nblocks+sb] = true
		}
	}
	sets := make([][]int32, nblocks)
	for db := 0; db < nblocks; db++ {
		for sb := 0; sb < nblocks; sb++ {
			if mark[db*nblocks+sb] {
				sets[db] = append(sets[db], int32(sb))
			}
		}
	}
	return sets
}
