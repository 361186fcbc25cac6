package pagerank

import (
	"math"
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
	"nabbitc/internal/graphs"
	"nabbitc/internal/omp"
	"nabbitc/internal/sim"
)

func graphs2002(nv int) graphs.WebConfig    { return graphs.UK2002(nv) }
func graphsTwitter(nv int) graphs.WebConfig { return graphs.Twitter2010(nv) }

func instances() []*PageRank {
	return []*PageRank{
		UK2002(bench.ScaleSmall), Twitter2010(bench.ScaleSmall), UK2007(bench.ScaleSmall),
	}
}

func TestInfo(t *testing.T) {
	for _, pr := range instances() {
		info := pr.Info()
		if info.Nodes != pr.Config().Blocks*pr.Config().Iterations {
			t.Fatalf("%s: nodes = %d", info.Name, info.Nodes)
		}
	}
}

func TestDefaultScaleMatchesPaperNodeCounts(t *testing.T) {
	// Table I: 1800, 4100, and 10500 task-graph nodes.
	for want, mk := range map[int]func(bench.Scale) *PageRank{
		1800:  UK2002,
		4100:  Twitter2010,
		10500: UK2007,
	} {
		if got := mk(bench.ScaleDefault).Info().Nodes; got != want {
			t.Fatalf("default nodes = %d, want %d", got, want)
		}
	}
}

func TestModelDAG(t *testing.T) {
	for _, pr := range instances() {
		spec, sink := pr.Model(8)
		order, err := core.TopoOrder(spec, sink, 0)
		if err != nil {
			t.Fatalf("%s: %v", pr.Config().Name, err)
		}
		if n := len(order); n != pr.Info().Nodes+1 {
			t.Fatalf("%s: DAG nodes = %d, want %d", pr.Config().Name, n, pr.Info().Nodes+1)
		}
	}
}

func TestDepsSymmetricClosure(t *testing.T) {
	// deps must include both in- and out-blocks: if block a depends on
	// block b (data), block b's next-iteration task must also appear
	// wherever the buffers demand. Concretely: a in deps closure of b
	// iff b in deps closure of a (the union construction is symmetric).
	pr := UK2002(bench.ScaleSmall)
	pr.build()
	nb := pr.cfg.Blocks
	member := make([][]bool, nb)
	for b := 0; b < nb; b++ {
		member[b] = make([]bool, nb)
		for _, d := range pr.deps[b] {
			member[b][int(d)] = true
		}
	}
	for a := 0; a < nb; a++ {
		for b := 0; b < nb; b++ {
			if member[a][b] != member[b][a] {
				t.Fatalf("dependence closure asymmetric at (%d,%d)", a, b)
			}
		}
	}
}

func avgDeps(pr *PageRank) float64 {
	pr.build()
	total := 0
	for _, d := range pr.deps {
		total += len(d)
	}
	return float64(total) / float64(len(pr.deps))
}

func TestUKDepsSparseTwitterDenser(t *testing.T) {
	// At a mid scale with enough blocks for sparsity to be visible:
	// uk's crawl locality keeps most blocks' fan-in near-diagonal,
	// while twitter's global edges densify the dependence structure.
	ukCfg := Config{Name: "uk-mid", Web: graphs2002(24000), Blocks: 96, Iterations: 2, Damping: 0.85}
	twCfg := Config{Name: "tw-mid", Web: graphsTwitter(24000), Blocks: 96, Iterations: 2, Damping: 0.85}
	uk, tw := New(ukCfg), New(twCfg)
	ukFrac := avgDeps(uk) / float64(uk.cfg.Blocks)
	twFrac := avgDeps(tw) / float64(tw.cfg.Blocks)
	if ukFrac > 0.5 {
		t.Fatalf("uk deps are near-dense: %.0f%% of blocks", ukFrac*100)
	}
	if twFrac <= ukFrac {
		t.Fatalf("twitter density (%.2f) not above uk (%.2f)", twFrac, ukFrac)
	}
}

func TestWorkSkew(t *testing.T) {
	// twitter's per-block cost spread (max/mean in-edges) must exceed
	// uk's — the load-imbalance driver.
	skew := func(pr *PageRank) float64 {
		pr.build()
		var max, total int64
		for _, e := range pr.inEdges {
			total += e
			if e > max {
				max = e
			}
		}
		return float64(max) * float64(len(pr.inEdges)) / float64(total)
	}
	uk, tw := skew(UK2002(bench.ScaleSmall)), skew(Twitter2010(bench.ScaleSmall))
	if tw <= uk {
		t.Fatalf("twitter block skew %.1f not above uk %.1f", tw, uk)
	}
}

func TestSimRuns(t *testing.T) {
	pr := UK2002(bench.ScaleSmall)
	spec, sink := pr.Model(20)
	res, err := sim.Run(spec, sink, sim.Options{Workers: 20, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.TotalNodes()) != pr.Info().Nodes+1 {
		t.Fatalf("executed %d", res.TotalNodes())
	}
}

func TestRankMassConserved(t *testing.T) {
	r := UK2002(bench.ScaleSmall).NewReal()
	r.RunSerial()
	if got := r.TotalRank(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("total rank = %v, want 1.0", got)
	}
}

func TestRealMatchesSerial(t *testing.T) {
	for _, mk := range []func(bench.Scale) *PageRank{UK2002, Twitter2010} {
		pr := mk(bench.ScaleSmall)
		name := pr.Config().Name

		serial := mk(bench.ScaleSmall).NewReal()
		serial.RunSerial()

		for _, pol := range []core.Policy{core.NabbitPolicy(), core.NabbitCPolicy()} {
			par := mk(bench.ScaleSmall).NewReal()
			spec, sink := par.Spec(8)
			if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: pol}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := par.MaxDiff(serial); d != 0 {
				t.Fatalf("%s: parallel ranks differ from serial by %v (colored=%v)",
					name, d, pol.Colored)
			}
		}

		for _, sched := range []omp.Schedule{omp.Static, omp.Guided} {
			par := mk(bench.ScaleSmall).NewReal()
			team := omp.NewTeam(8)
			par.RunOpenMP(team, sched)
			team.Close()
			if d := par.MaxDiff(serial); d != 0 {
				t.Fatalf("%s/%v: OpenMP ranks differ by %v", name, sched, d)
			}
		}
	}
}

func TestHubRanksHigher(t *testing.T) {
	// Pages targeted by global (hub-directed) links must accumulate more
	// rank than the median page.
	pr := UK2002(bench.ScaleSmall)
	r := pr.NewReal()
	r.RunSerial()
	final := r.Final()
	// The highest in-degree vertex is a hub by construction.
	tg := pr.tg
	hub, best := 0, 0
	for v := 0; v < tg.NV(); v++ {
		if d := tg.OutDegree(v); d > best {
			best = d
			hub = v
		}
	}
	mean := 1.0 / float64(len(final))
	if final[hub] < 2*mean {
		t.Fatalf("hub rank %v not above 2x mean %v", final[hub], mean)
	}
}
