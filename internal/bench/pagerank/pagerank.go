// Package pagerank implements the paper's irregular benchmark: PageRank by
// the power method over blocked web graphs, as a dynamic task graph.
//
// Each task owns a block of pages and computes their new ranks by pulling
// contributions along in-edges (the paper pushes along out-edges; pulling
// is the transposed formulation with the same locality structure and no
// atomics). Task (iter, block) depends on the previous iteration's tasks
// for every block that exchanges edges with it — in-blocks because their
// ranks are read, out-blocks because their tasks read this block's
// previous ranks from the buffer this task overwrites (anti-dependence of
// the double-buffered rank arrays).
//
// With crawl-ordered graphs (uk-2002, uk-2007-05) most links are local, so
// most tasks have a handful of dependences and block coloring captures
// locality; hub blocks — pages many links point to — have dense fan-in and
// data-dependent cost. twitter-2010 adds super-hub out-degrees, so
// per-task work varies wildly: the regime where OpenMP static loses load
// balance, OpenMP guided loses locality, and NabbitC wins on both
// (Fig. 6, second row).
package pagerank

import (
	"fmt"
	"sync"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
	"nabbitc/internal/graphs"
	"nabbitc/internal/simomp"
)

// Config describes one PageRank dataset instance.
type Config struct {
	// Name is the Table I id (page-uk-2002, ...).
	Name        string
	Description string
	// Web configures the synthetic crawl standing in for the dataset.
	Web graphs.WebConfig
	// Blocks is the task count per iteration.
	Blocks int
	// Iterations is the power-method iteration count (paper: 10).
	Iterations int
	// Damping is the PageRank damping factor.
	Damping float64
}

// PageRank is one benchmark instance. Graph generation and blocking are
// lazy and memoized: harness code that only needs Info must not pay for
// multi-million-edge generation.
type PageRank struct {
	cfg  Config
	once sync.Once

	g  *graphs.CSR // the crawl
	tg *graphs.CSR // transpose (in-edges), what the pull kernel traverses

	deps      [][]core.Key // per dst block: union of in- and out-blocks
	inEdges   []int64      // in-edge count per block
	localInE  []int64      // in-edges from blocks within the local window
	globalInE []int64      // the rest
}

// New returns an instance with the given configuration.
func New(cfg Config) *PageRank { return &PageRank{cfg: cfg} }

// UK2002 returns the page-uk-2002 benchmark (paper: 18M vertices, 298M
// edges, 1800 task nodes).
func UK2002(s bench.Scale) *PageRank {
	cfg := Config{
		Name:        "page-uk-2002",
		Description: "PageRank (power method), uk-2002-like crawl",
		Iterations:  10, Damping: 0.85,
	}
	switch s {
	case bench.ScaleSmall:
		cfg.Web, cfg.Blocks, cfg.Iterations = graphs.UK2002(4000), 16, 3
	default:
		cfg.Web, cfg.Blocks = graphs.UK2002(60000), 180
	}
	return New(cfg)
}

// Twitter2010 returns the page-twitter-2010 benchmark (paper: 41M
// vertices, 1.47G edges, 4100 task nodes) — the most irregular dataset.
func Twitter2010(s bench.Scale) *PageRank {
	cfg := Config{
		Name:        "page-twitter-2010",
		Description: "PageRank (power method), twitter-2010-like graph",
		Iterations:  10, Damping: 0.85,
	}
	switch s {
	case bench.ScaleSmall:
		cfg.Web, cfg.Blocks, cfg.Iterations = graphs.Twitter2010(4000), 20, 3
	default:
		cfg.Web, cfg.Blocks = graphs.Twitter2010(60000), 410
	}
	return New(cfg)
}

// UK2007 returns the page-uk-2007-05 benchmark (paper: 105M vertices,
// 3.74G edges, 10500 task nodes).
func UK2007(s bench.Scale) *PageRank {
	cfg := Config{
		Name:        "page-uk-2007-05",
		Description: "PageRank (power method), uk-2007-05-like crawl",
		Iterations:  10, Damping: 0.85,
	}
	switch s {
	case bench.ScaleSmall:
		cfg.Web, cfg.Blocks, cfg.Iterations = graphs.UK2007(6000), 24, 3
	default:
		cfg.Web, cfg.Blocks = graphs.UK2007(105000), 1050
	}
	return New(cfg)
}

// Config returns the instance configuration.
func (pr *PageRank) Config() Config { return pr.cfg }

// Info implements bench.Benchmark.
func (pr *PageRank) Info() bench.Info {
	c := pr.cfg
	return bench.Info{
		Name:        c.Name,
		Description: c.Description,
		ProblemSize: fmt.Sprintf("nv=%d blocks=%d", c.Web.NV, c.Blocks),
		Iterations:  c.Iterations,
		Nodes:       c.Blocks * c.Iterations,
	}
}

// build generates the graph and the block dependence structure.
func (pr *PageRank) build() {
	pr.once.Do(func() {
		g, err := graphs.Generate(pr.cfg.Web)
		if err != nil {
			panic(fmt.Sprintf("pagerank: %v", err))
		}
		pr.g = g
		pr.tg = g.Transpose()

		nv, nb := g.NV(), pr.cfg.Blocks
		// mark[db*nb+sb]: an edge sb -> db exists at block level.
		mark := make([]bool, nb*nb)
		for src := 0; src < nv; src++ {
			sb := graphs.BlockOf(src, nv, nb)
			for _, dst := range g.Neighbors(src) {
				db := graphs.BlockOf(int(dst), nv, nb)
				mark[db*nb+sb] = true
			}
		}
		// deps[b] = {sb : sb->b} ∪ {db : b->db}, as block indices.
		pr.deps = make([][]core.Key, nb)
		for b := 0; b < nb; b++ {
			var ds []core.Key
			for o := 0; o < nb; o++ {
				if mark[b*nb+o] || mark[o*nb+b] {
					ds = append(ds, core.Key(o))
				}
			}
			pr.deps[b] = ds
		}

		// Edge tallies per dst block, split local vs. global by source
		// block distance. The local radius is the crawl's link window
		// expressed in blocks — the range block coloring can keep
		// in-domain.
		radius := pr.cfg.Web.LocalWindow*nb/nv + 1
		pr.inEdges = make([]int64, nb)
		pr.localInE = make([]int64, nb)
		pr.globalInE = make([]int64, nb)
		for dst := 0; dst < nv; dst++ {
			db := graphs.BlockOf(dst, nv, nb)
			for _, src := range pr.tg.Neighbors(dst) {
				sb := graphs.BlockOf(int(src), nv, nb)
				pr.inEdges[db]++
				d := db - sb
				if d < 0 {
					d = -d
				}
				if d <= radius {
					pr.localInE[db]++
				} else {
					pr.globalInE[db]++
				}
			}
		}
	})
}

// Graph returns the underlying crawl (generating it on first use).
func (pr *PageRank) Graph() *graphs.CSR {
	pr.build()
	return pr.g
}

// Key layout: iteration-major; sink gathers the last iteration.
func (pr *PageRank) key(it, b int) core.Key { return core.Key(it*pr.cfg.Blocks + b) }

func (pr *PageRank) sink() core.Key {
	return core.Key(pr.cfg.Iterations * pr.cfg.Blocks)
}

// keyBound is the dense key universe: all (iter, block) tasks plus the
// sink, which is the largest key.
func (pr *PageRank) keyBound() int { return int(pr.sink()) + 1 }

func (pr *PageRank) preds(k core.Key) []core.Key {
	c := pr.cfg
	if k == pr.sink() {
		ps := make([]core.Key, c.Blocks)
		for b := 0; b < c.Blocks; b++ {
			ps[b] = pr.key(c.Iterations-1, b)
		}
		return ps
	}
	it, b := int(k)/c.Blocks, int(k)%c.Blocks
	if it == 0 {
		return nil
	}
	base := core.Key((it - 1) * c.Blocks)
	ds := pr.deps[b]
	ps := make([]core.Key, len(ds))
	for i, d := range ds {
		ps[i] = base + d
	}
	return ps
}

func (pr *PageRank) colorOf(k core.Key, p int) int {
	if k == pr.sink() {
		return 0
	}
	b := int(k) % pr.cfg.Blocks
	return b * p / pr.cfg.Blocks
}

func (pr *PageRank) footprint(k core.Key) core.Footprint {
	if k == pr.sink() {
		return core.Footprint{Compute: 1}
	}
	c := pr.cfg
	b := int(k) % c.Blocks
	lo, hi := graphs.BlockRange(b, c.Web.NV, c.Blocks)
	verts := int64(hi - lo)
	inE := pr.inEdges[b]
	npreds := len(pr.deps[b])
	var predBytes int64
	if npreds > 0 {
		predBytes = pr.localInE[b] * 8 / int64(npreds)
	}
	return core.Footprint{
		// Per in-edge: load source rank, divide, accumulate.
		Compute: 2*inE + 4*verts,
		// Own block: rank read+write plus the local slice of the
		// transposed edge structure.
		OwnBytes: verts*16 + inE*8,
		// Rank reads from nearby source blocks, charged per dependence.
		PredBytes: predBytes,
		// Rank reads from far blocks (hub fan-in): remote for every
		// scheduler.
		SpreadBytes: pr.globalInE[b] * 8,
	}
}

// Model implements bench.Benchmark.
func (pr *PageRank) Model(p int) (core.CostSpec, core.Key) {
	pr.build()
	return core.FuncSpec{
		PredsFn:     pr.preds,
		ColorFn:     func(k core.Key) int { return pr.colorOf(k, p) },
		FootprintFn: pr.footprint,
		BoundFn:     pr.keyBound,
	}, pr.sink()
}

// Sweeps implements bench.Benchmark: the OpenMP formulation is one
// parallel-for over blocks per power iteration.
func (pr *PageRank) Sweeps(p int) []simomp.Sweep {
	pr.build()
	c := pr.cfg
	iterFn := func(b int) simomp.Iter {
		k := pr.key(0, b)
		var neighbors []int
		for _, d := range pr.deps[b] {
			neighbors = append(neighbors, int(d)*p/c.Blocks)
		}
		return simomp.Iter{
			Home:          b * p / c.Blocks,
			Fp:            pr.footprint(k),
			NeighborHomes: neighbors,
		}
	}
	sweeps := make([]simomp.Sweep, c.Iterations)
	for i := range sweeps {
		sweeps[i] = simomp.Sweep{N: c.Blocks, IterFn: iterFn}
	}
	return sweeps
}
