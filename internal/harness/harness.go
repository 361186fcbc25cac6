// Package harness drives the paper's experiments (Figures 6-9, Tables
// I-III, plus ablations) on the simulated machine. Every experiment
// builds a typed perf.Report — named, direction-annotated metrics over
// keyed rows — and the classic table/CSV outputs plus the machine-read
// JSON document are renderers over that one value.
package harness

import (
	"fmt"
	"io"
	"strconv"

	"nabbitc/internal/bench"
	"nabbitc/internal/bench/suite"
	"nabbitc/internal/core"
	"nabbitc/internal/numa"
	"nabbitc/internal/omp"
	"nabbitc/internal/perf"
	"nabbitc/internal/sim"
	"nabbitc/internal/simomp"
)

// Output formats for Run.
const (
	FormatTable = "table"
	FormatCSV   = "csv"
	FormatJSON  = "json"
)

// Formats lists the valid Config.Format values.
func Formats() []string { return []string{FormatTable, FormatCSV, FormatJSON} }

// Config parameterizes an experiment run.
type Config struct {
	// Scale selects benchmark sizes (default bench.ScaleDefault).
	Scale bench.Scale
	// Cores is the core-count sweep (default 1,2,4,10,20,40,60,80 — the
	// paper's x-axis).
	Cores []int
	// Benchmarks restricts the suite (default: all of Table I).
	Benchmarks []string
	// Cost overrides the machine cost model.
	Cost numa.CostModel
	// Seed, when nonzero, overrides the scheduling seed of every policy
	// the experiments run (victim selection; 0 keeps each policy's
	// default). Changing it changes the emitted document — regenerated
	// baselines must use the default.
	Seed uint64
	// Format selects the renderer: FormatTable (default), FormatCSV, or
	// FormatJSON (one perf.Document over the whole run).
	Format string
	// Out receives the rendered output.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if len(c.Cores) == 0 {
		c.Cores = []int{1, 2, 4, 10, 20, 40, 60, 80}
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = suite.Names()
	}
	if c.Cost == (numa.CostModel{}) {
		c.Cost = numa.DefaultCostModel()
	}
	if c.Format == "" {
		c.Format = FormatTable
	}
	return c
}

// runConfig echoes the configuration into the report envelope.
func (c Config) runConfig() perf.RunConfig {
	return perf.RunConfig{
		Scale:      c.Scale.String(),
		Cores:      c.Cores,
		Benchmarks: c.Benchmarks,
		Cost:       costMap(c.Cost),
	}
}

func costMap(m numa.CostModel) map[string]float64 {
	return map[string]float64{
		"local_byte_cost":    m.LocalByteCost,
		"remote_penalty":     m.RemotePenalty,
		"compute_unit_cost":  m.ComputeUnitCost,
		"node_overhead":      float64(m.NodeOverhead),
		"edge_overhead":      float64(m.EdgeOverhead),
		"steal_attempt_cost": float64(m.StealAttemptCost),
		"steal_success_cost": float64(m.StealSuccessCost),
	}
}

// experiments maps each experiment name to its report builder, in display
// order.
var experiments = []struct {
	name  string
	build func(Config) (*perf.Report, error)
}{
	{"table1", table1Report},
	{"fig6", fig6Report},
	{"fig7", fig7Report},
	{"fig8", fig8Report},
	{"fig9", fig9Report},
	{"table2", table2Report},
	{"table3", table3Report},
	{"ablate", ablateReport},
	{"hier", hierReport},
}

// Experiments lists the runnable experiment names.
func Experiments() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// ValidExperiment reports whether name is runnable ("all" included).
func ValidExperiment(name string) bool {
	if name == "all" {
		return true
	}
	for _, e := range experiments {
		if e.name == name {
			return true
		}
	}
	return false
}

// Reports builds the typed reports for the named experiment ("all" builds
// every experiment) without rendering anything.
func Reports(name string, cfg Config) ([]*perf.Report, error) {
	cfg = cfg.withDefaults()
	if name == "all" {
		out := make([]*perf.Report, 0, len(experiments))
		for _, e := range experiments {
			r, err := e.build(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.name, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	for _, e := range experiments {
		if e.name == name {
			r, err := e.build(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			return []*perf.Report{r}, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v, all)", name, Experiments())
}

// Document builds the reports for the named experiment and wraps them in
// a sim-kind perf.Document (the JSON emission form).
func Document(name string, cfg Config) (*perf.Document, error) {
	reports, err := Reports(name, cfg)
	if err != nil {
		return nil, err
	}
	doc := perf.NewDocument(perf.KindSim)
	for _, r := range reports {
		doc.AddReport(r)
	}
	return doc, nil
}

// Run executes the named experiment ("all" runs everything) and renders
// it to cfg.Out in cfg.Format.
func Run(name string, cfg Config) error {
	cfg = cfg.withDefaults()
	switch cfg.Format {
	case FormatTable, FormatCSV, FormatJSON:
	default:
		return fmt.Errorf("harness: unknown format %q (have %v)", cfg.Format, Formats())
	}
	if cfg.Format == FormatJSON {
		doc, err := Document(name, cfg)
		if err != nil {
			return err
		}
		return perf.Encode(cfg.Out, doc)
	}
	reports, err := Reports(name, cfg)
	if err != nil {
		return err
	}
	for _, r := range reports {
		if cfg.Format == FormatCSV {
			if err := perf.WriteCSV(cfg.Out, r); err != nil {
				return err
			}
		} else if err := perf.WriteText(cfg.Out, r); err != nil {
			return err
		}
	}
	return nil
}

func (c Config) newReport(experiment string) *perf.Report {
	return &perf.Report{Experiment: experiment, Config: c.runConfig()}
}

func (c Config) suite() ([]bench.Benchmark, error) {
	out := make([]bench.Benchmark, 0, len(c.Benchmarks))
	for _, name := range c.Benchmarks {
		b, err := suite.Build(name, c.Scale)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// serialTime returns the all-local single-worker virtual time (the
// speedup denominator). Colors are taken from a single-worker model; the
// footprints they produce are p-independent.
func (c Config) serialTime(b bench.Benchmark) (int64, error) {
	spec, sink := b.Model(1)
	return sim.SerialTime(spec, sink, c.Cost)
}

// policy applies the config's seed override to pol: nonzero replaces the
// policy's seed, zero keeps its default.
func (c Config) policy(pol core.Policy) core.Policy {
	if c.Seed != 0 {
		pol.Seed = c.Seed
	}
	return pol
}

// runTaskGraph runs benchmark b under the given policy on p simulated
// cores.
func (c Config) runTaskGraph(b bench.Benchmark, p int, pol core.Policy) (*sim.Result, error) {
	spec, sink := b.Model(p)
	return sim.Run(spec, sink, sim.Options{Workers: p, Policy: c.policy(pol), Cost: c.Cost})
}

// runOMP runs the OpenMP formulation under the given schedule.
func (c Config) runOMP(b bench.Benchmark, p int, sched omp.Schedule) (*simomp.Result, error) {
	return simomp.Run(p, numa.Paper(p), c.Cost, sched, b.Sweeps(p))
}

func itoa(p int) string { return strconv.Itoa(p) }

// table1Report builds the benchmark-configuration table (Table I).
func table1Report(cfg Config) (*perf.Report, error) {
	benches, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	rep := cfg.newReport("table1")
	t := perf.NewTable("table1",
		"Table I: benchmark configurations and serial execution time",
		"benchmark",
		perf.M("iterations", "", perf.Neutral),
		perf.M("graph_nodes", "", perf.Neutral),
		perf.M("serial_mcycles", "Mcycles", perf.Neutral))
	t.LabelCols = []string{"description", "problem_size"}
	for _, b := range benches {
		info := b.Info()
		serial, err := cfg.serialTime(b)
		if err != nil {
			return nil, err
		}
		t.AddLabeledRow(info.Name,
			map[string]string{"description": info.Description, "problem_size": info.ProblemSize},
			map[string]float64{
				"iterations":     float64(info.Iterations),
				"graph_nodes":    float64(info.Nodes),
				"serial_mcycles": float64(serial) / 1e6,
			})
	}
	rep.AddTable(t)
	return rep, nil
}

// fig6Report builds speedup-vs-cores for every benchmark under all four
// schedulers.
func fig6Report(cfg Config) (*perf.Report, error) {
	benches, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	rep := cfg.newReport("fig6")
	for _, b := range benches {
		serial, err := cfg.serialTime(b)
		if err != nil {
			return nil, err
		}
		t := perf.NewTable("fig6/"+b.Info().Name,
			fmt.Sprintf("Fig 6 (%s): speedup over serial", b.Info().Name),
			"P",
			perf.M("speedup_omp_static", "x", perf.HigherIsBetter),
			perf.M("speedup_omp_guided", "x", perf.HigherIsBetter),
			perf.M("speedup_nabbit", "x", perf.HigherIsBetter),
			perf.M("speedup_nabbitc", "x", perf.HigherIsBetter))
		for _, p := range cfg.Cores {
			st, err := cfg.runOMP(b, p, omp.Static)
			if err != nil {
				return nil, err
			}
			gd, err := cfg.runOMP(b, p, omp.Guided)
			if err != nil {
				return nil, err
			}
			nb, err := cfg.runTaskGraph(b, p, core.NabbitPolicy())
			if err != nil {
				return nil, err
			}
			nc, err := cfg.runTaskGraph(b, p, core.NabbitCPolicy())
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(p), map[string]float64{
				"speedup_omp_static": float64(serial) / float64(st.Time),
				"speedup_omp_guided": float64(serial) / float64(gd.Time),
				"speedup_nabbit":     float64(serial) / float64(nb.Makespan),
				"speedup_nabbitc":    float64(serial) / float64(nc.Makespan),
			})
		}
		rep.AddTable(t)
	}
	return rep, nil
}

// fig7Cores filters the sweep to >= 20 cores (below that the paper's
// machine is a single NUMA domain).
func fig7Cores(cores []int) []int {
	var out []int
	for _, p := range cores {
		if p >= 20 {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []int{20, 40, 60, 80}
	}
	return out
}

// fig7Report builds the percentage of remote accesses.
func fig7Report(cfg Config) (*perf.Report, error) {
	benches, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	rep := cfg.newReport("fig7")
	for _, b := range benches {
		t := perf.NewTable("fig7/"+b.Info().Name,
			fmt.Sprintf("Fig 7 (%s): %% accesses to remote NUMA domains", b.Info().Name),
			"P",
			perf.M("remote_pct_nabbitc", "%", perf.LowerIsBetter),
			perf.M("remote_pct_nabbit", "%", perf.LowerIsBetter),
			perf.M("remote_pct_omp_static", "%", perf.LowerIsBetter))
		for _, p := range fig7Cores(cfg.Cores) {
			nc, err := cfg.runTaskGraph(b, p, core.NabbitCPolicy())
			if err != nil {
				return nil, err
			}
			nb, err := cfg.runTaskGraph(b, p, core.NabbitPolicy())
			if err != nil {
				return nil, err
			}
			st, err := cfg.runOMP(b, p, omp.Static)
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(p), map[string]float64{
				"remote_pct_nabbitc":    nc.RemotePercent(),
				"remote_pct_nabbit":     nb.RemotePercent(),
				"remote_pct_omp_static": st.RemotePercent(),
			})
		}
		rep.AddTable(t)
	}
	return rep, nil
}

// fig8Report builds average successful steals per worker.
func fig8Report(cfg Config) (*perf.Report, error) {
	benches, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	rep := cfg.newReport("fig8")
	for _, b := range benches {
		t := perf.NewTable("fig8/"+b.Info().Name,
			fmt.Sprintf("Fig 8 (%s): average successful steals", b.Info().Name),
			"P",
			perf.M("steals_per_worker_nabbitc", "", perf.Neutral),
			perf.M("steals_per_worker_nabbit", "", perf.Neutral))
		for _, p := range cfg.Cores {
			if p < 2 {
				continue
			}
			nc, err := cfg.runTaskGraph(b, p, core.NabbitCPolicy())
			if err != nil {
				return nil, err
			}
			nb, err := cfg.runTaskGraph(b, p, core.NabbitPolicy())
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(p), map[string]float64{
				"steals_per_worker_nabbitc": nc.AvgSuccessfulSteals(),
				"steals_per_worker_nabbit":  nb.AvgSuccessfulSteals(),
			})
		}
		rep.AddTable(t)
	}
	return rep, nil
}

// fig9Report builds the average idle time before first work (forced first
// colored steal) for the heat benchmark, like the paper ("we observed
// this time was the same for all benchmarks").
func fig9Report(cfg Config) (*perf.Report, error) {
	b, err := suite.Build("heat", cfg.Scale)
	if err != nil {
		return nil, err
	}
	rep := cfg.newReport("fig9")
	t := perf.NewTable("fig9/heat",
		"Fig 9 (heat): idle time due to forcing the first colored steal",
		"P",
		perf.M("time_to_first_work_kcycles", "kcycles", perf.LowerIsBetter),
		perf.M("first_steal_checks", "", perf.Neutral))
	for _, p := range cfg.Cores {
		nc, err := cfg.runTaskGraph(b, p, core.NabbitCPolicy())
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(p), map[string]float64{
			"time_to_first_work_kcycles": float64(nc.AvgTimeToFirstWork()) / 1e3,
			"first_steal_checks":         float64(nc.FirstStealChecks()),
		})
	}
	rep.AddTable(t)
	return rep, nil
}

// coloringReport builds NabbitC-with-altered-coloring speedup over Nabbit
// for every benchmark at 20-80 cores (the shape of Tables II and III).
func coloringReport(cfg Config, name, caption string, alter func(core.CostSpec, int) core.CostSpec) (*perf.Report, error) {
	benches, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	rep := cfg.newReport(name)
	metrics := make([]perf.Metric, len(benches))
	for i, b := range benches {
		metrics[i] = perf.M("speedup_vs_nabbit/"+b.Info().Name, "x", perf.HigherIsBetter)
	}
	t := perf.NewTable(name, caption, "P", metrics...)
	for _, p := range fig7Cores(cfg.Cores) {
		row := make(map[string]float64, len(benches))
		for _, b := range benches {
			nb, err := cfg.runTaskGraph(b, p, core.NabbitPolicy())
			if err != nil {
				return nil, err
			}
			spec, sink := b.Model(p)
			altered := alter(spec, p)
			nc, err := sim.Run(altered, sink, sim.Options{
				Workers: p, Policy: cfg.policy(core.NabbitCPolicy()), Cost: cfg.Cost,
			})
			if err != nil {
				return nil, err
			}
			row["speedup_vs_nabbit/"+b.Info().Name] = float64(nb.Makespan) / float64(nc.Makespan)
		}
		t.AddRow(itoa(p), row)
	}
	rep.AddTable(t)
	return rep, nil
}

// table2Report is the bad-coloring ablation: valid colors pointing at the
// wrong domain.
func table2Report(cfg Config) (*perf.Report, error) {
	return coloringReport(cfg, "table2",
		"Table II: speedup of NabbitC over Nabbit under a bad (valid but wrong) coloring",
		func(s core.CostSpec, p int) core.CostSpec { return bench.BadColoring(s, p) })
}

// table3Report is the invalid-coloring ablation: colors no worker owns, so
// all colored steals fail.
func table3Report(cfg Config) (*perf.Report, error) {
	return coloringReport(cfg, "table3",
		"Table III: speedup of NabbitC over Nabbit under an invalid coloring",
		func(s core.CostSpec, _ int) core.CostSpec { return bench.InvalidColoring(s) })
}

// hierReport is the hierarchical-stealing ablation: for every benchmark it
// compares Nabbit, flat NabbitC, and NabbitC with the socket-tier colored
// steal protocol plus batched cross-socket steals (NabbitC-hier), and
// reports where the hierarchical policy's steals were served from.
func hierReport(cfg Config) (*perf.Report, error) {
	benches, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	rep := cfg.newReport("hier")
	for _, b := range benches {
		serial, err := cfg.serialTime(b)
		if err != nil {
			return nil, err
		}
		t := perf.NewTable("hier/"+b.Info().Name,
			fmt.Sprintf("Hier ablation (%s): flat vs socket-tier colored stealing", b.Info().Name),
			"P",
			perf.M("speedup_nabbit", "x", perf.HigherIsBetter),
			perf.M("speedup_nabbitc", "x", perf.HigherIsBetter),
			perf.M("speedup_hier", "x", perf.HigherIsBetter),
			perf.M("hier_vs_flat", "x", perf.HigherIsBetter),
			perf.M("hier_remote_pct", "%", perf.LowerIsBetter),
			perf.M("socket_steal_pct", "%", perf.Neutral),
			perf.M("avg_batch", "", perf.Neutral))
		var lastHier *sim.Result // reused for the tier-anatomy table
		for _, p := range cfg.Cores {
			nb, err := cfg.runTaskGraph(b, p, core.NabbitPolicy())
			if err != nil {
				return nil, err
			}
			nc, err := cfg.runTaskGraph(b, p, core.NabbitCPolicy())
			if err != nil {
				return nil, err
			}
			nh, err := cfg.runTaskGraph(b, p, core.NabbitCHierPolicy())
			if err != nil {
				return nil, err
			}
			lastHier = nh
			t.AddRow(itoa(p), map[string]float64{
				"speedup_nabbit":   float64(serial) / float64(nb.Makespan),
				"speedup_nabbitc":  float64(serial) / float64(nc.Makespan),
				"speedup_hier":     float64(serial) / float64(nh.Makespan),
				"hier_vs_flat":     float64(nc.Makespan) / float64(nh.Makespan),
				"hier_remote_pct":  nh.RemotePercent(),
				"socket_steal_pct": nh.SocketStealPercent(),
				"avg_batch":        nh.AvgBatchSize(),
			})
		}
		rep.AddTable(t)

		// Tier anatomy at the largest core count, straight off the
		// simulator's named-metric plumbing: where did the hierarchical
		// policy's probes go, and how often did each tier pay off?
		p := cfg.Cores[len(cfg.Cores)-1]
		nhm := lastHier.Metrics()
		tt := perf.NewTable(fmt.Sprintf("hier/%s/tiers", b.Info().Name),
			fmt.Sprintf("Hier ablation (%s, P=%d): steal-tier anatomy", b.Info().Name, p),
			"tier",
			perf.M("attempts", "", perf.Neutral),
			perf.M("steals", "", perf.Neutral),
			perf.M("hit_rate", "", perf.Neutral))
		for tier := core.StealTier(0); tier < core.NumStealTiers; tier++ {
			tt.AddRow(tier.String(), map[string]float64{
				"attempts": nhm["tier_attempts/"+tier.String()],
				"steals":   nhm["tier_steals/"+tier.String()],
				"hit_rate": lastHier.TierHitRate(tier),
			})
		}
		rep.AddTable(tt)
	}
	return rep, nil
}

// ablateReport sweeps NabbitC's design knobs on heat and page-uk-2002:
// the colored-steal attempt budget, the forced first colored steal, and
// the machine's remote penalty.
func ablateReport(cfg Config) (*perf.Report, error) {
	names := []string{"heat", "page-uk-2002"}
	p := cfg.Cores[len(cfg.Cores)-1]
	rep := cfg.newReport("ablate")
	for _, name := range names {
		b, err := suite.Build(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		serial, err := cfg.serialTime(b)
		if err != nil {
			return nil, err
		}

		t := perf.NewTable(fmt.Sprintf("ablate/%s/colored-attempts", name),
			fmt.Sprintf("Ablation (%s, P=%d): colored-steal attempt budget", name, p),
			"colored_steal_attempts",
			perf.M("speedup", "x", perf.HigherIsBetter),
			perf.M("remote_pct", "%", perf.LowerIsBetter),
			perf.M("steals_per_worker", "", perf.Neutral))
		for _, k := range []int{1, 2, 4, 8, 16} {
			pol := core.NabbitCPolicy()
			pol.ColoredStealAttempts = k
			res, err := cfg.runTaskGraph(b, p, pol)
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(k), map[string]float64{
				"speedup":           float64(serial) / float64(res.Makespan),
				"remote_pct":        res.RemotePercent(),
				"steals_per_worker": res.AvgSuccessfulSteals(),
			})
		}
		rep.AddTable(t)

		t = perf.NewTable(fmt.Sprintf("ablate/%s/first-steal", name),
			fmt.Sprintf("Ablation (%s, P=%d): forced first colored steal", name, p),
			"force_first_colored_steal",
			perf.M("speedup", "x", perf.HigherIsBetter),
			perf.M("remote_pct", "%", perf.LowerIsBetter),
			perf.M("first_steal_checks", "", perf.Neutral))
		for _, force := range []bool{true, false} {
			pol := core.NabbitCPolicy()
			pol.ForceFirstColoredSteal = force
			res, err := cfg.runTaskGraph(b, p, pol)
			if err != nil {
				return nil, err
			}
			t.AddRow(strconv.FormatBool(force), map[string]float64{
				"speedup":            float64(serial) / float64(res.Makespan),
				"remote_pct":         res.RemotePercent(),
				"first_steal_checks": float64(res.FirstStealChecks()),
			})
		}
		rep.AddTable(t)

		t = perf.NewTable(fmt.Sprintf("ablate/%s/remote-penalty", name),
			fmt.Sprintf("Ablation (%s, P=%d): NUMA remote penalty", name, p),
			"remote_penalty",
			perf.M("speedup_nabbitc", "x", perf.HigherIsBetter),
			perf.M("speedup_nabbit", "x", perf.HigherIsBetter),
			perf.M("nabbitc_vs_nabbit", "x", perf.HigherIsBetter))
		for _, pen := range []float64{1.5, 2.5, 4.0} {
			cost := cfg.Cost
			cost.RemotePenalty = pen
			c2 := cfg
			c2.Cost = cost
			serial2, err := c2.serialTime(b)
			if err != nil {
				return nil, err
			}
			nc, err := c2.runTaskGraph(b, p, core.NabbitCPolicy())
			if err != nil {
				return nil, err
			}
			nb, err := c2.runTaskGraph(b, p, core.NabbitPolicy())
			if err != nil {
				return nil, err
			}
			t.AddRow(strconv.FormatFloat(pen, 'g', -1, 64), map[string]float64{
				"speedup_nabbitc":   float64(serial2) / float64(nc.Makespan),
				"speedup_nabbit":    float64(serial2) / float64(nb.Makespan),
				"nabbitc_vs_nabbit": float64(nb.Makespan) / float64(nc.Makespan),
			})
		}
		rep.AddTable(t)
	}
	return rep, nil
}
