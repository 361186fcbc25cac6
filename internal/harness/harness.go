// Package harness drives the paper's experiments (Figures 6-9, Tables
// I-III, plus ablations) on the simulated machine. Every experiment
// builds a typed perf.Report — named, direction-annotated metrics over
// keyed rows — and the classic table/CSV outputs plus the machine-read
// JSON document are renderers over that one value.
//
// Within one Reports, Document or Run call the experiments share a memo:
// each benchmark is built once and each distinct simulation, keyed by
// every input that decides it, runs once however many experiments read
// it. A failed build or run unwinds to Reports, which returns it prefixed
// with the experiment's name.
package harness

import (
	"fmt"
	"io"
	"slices"
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

	memo memo // set by Reports for the length of one call
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

// experiment is one report builder, named as the CLI's -experiment flag.
type experiment struct {
	name  string
	build func(Config) *perf.Report
}

// experiments lists every experiment in display order.
var experiments = []experiment{
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
	return name == "all" || slices.Contains(Experiments(), name)
}

// Check reports the first invalid field of c: an unknown format or
// benchmark, a core count below 1, or a benchmark or core count named
// twice (its rows would share a key). Reports runs it before any
// simulation.
func (c Config) Check() error {
	if c.Format != "" && !slices.Contains(Formats(), c.Format) {
		return fmt.Errorf("harness: unknown format %q (have %v)", c.Format, Formats())
	}
	for i, name := range c.Benchmarks {
		if !slices.Contains(suite.Names(), name) {
			return fmt.Errorf("harness: unknown benchmark %q (have %v)", name, suite.Names())
		}
		if slices.Contains(c.Benchmarks[:i], name) {
			return fmt.Errorf("harness: benchmark %q named twice", name)
		}
	}
	for i, p := range c.Cores {
		if p < 1 {
			return fmt.Errorf("harness: bad core count %d (must be >= 1)", p)
		}
		if slices.Contains(c.Cores[:i], p) {
			return fmt.Errorf("harness: core count %d named twice", p)
		}
	}
	return nil
}

// Reports builds the typed reports for the named experiment ("all" builds
// every experiment) without rendering anything. The experiments share one
// memo, so each benchmark is built and each distinct simulation run once
// per call.
func Reports(name string, cfg Config) ([]*perf.Report, error) {
	if !ValidExperiment(name) {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v, all)", name, Experiments())
	}
	cfg = cfg.withDefaults()
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	cfg.memo = memo{}
	var out []*perf.Report
	for _, e := range experiments {
		if name == "all" || name == e.name {
			r, err := cfg.report(e)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// failure carries a failed build or run from the memo up to report.
type failure struct{ err error }

// report builds experiment e, returning a failed build or run as its
// error, prefixed with the experiment's name. Any other panic is re-raised.
func (c Config) report(e experiment) (rep *perf.Report, err error) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case failure:
			rep, err = nil, fmt.Errorf("%s: %w", e.name, v.err)
		default:
			panic(v)
		}
	}()
	return e.build(c), nil
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

// runKey names a benchmark build or a simulation by every input that
// decides it (the scale is fixed for one memo).
type runKey struct {
	kind     string // "bench", "serial", "sim" or "omp"
	bench    string
	p        int
	pol      core.Policy // after Config.policy
	cost     numa.CostModel
	coloring string       // a colorings entry, or "" for the model's own
	sched    omp.Schedule // for an OpenMP run
}

// memo holds every benchmark one Reports call has built and every result
// it has simulated.
type memo map[runKey]any

// once returns m[k], computing it with f on first use. An error unwinds to
// Config.report as a failure.
func once[V any](m memo, k runKey, f func() (V, error)) V {
	if v, ok := m[k]; ok {
		return v.(V)
	}
	v, err := f()
	if err != nil {
		panic(failure{err})
	}
	m[k] = v
	return v
}

// bench returns the named benchmark at the config's scale.
func (c Config) bench(name string) bench.Benchmark {
	return once(c.memo, runKey{kind: "bench", bench: name}, func() (bench.Benchmark, error) {
		return suite.Build(name, c.Scale)
	})
}

// serial returns the all-local single-worker virtual time (the speedup
// denominator). Colors are taken from a single-worker model; the
// footprints they produce are p-independent.
func (c Config) serial(name string) int64 {
	return once(c.memo, runKey{kind: "serial", bench: name, cost: c.Cost}, func() (int64, error) {
		spec, sink := c.bench(name).Model(1)
		return sim.SerialTime(spec, sink, c.Cost)
	})
}

// policy applies the config's seed override to pol: nonzero replaces the
// policy's seed, zero keeps its default.
func (c Config) policy(pol core.Policy) core.Policy {
	if c.Seed != 0 {
		pol.Seed = c.Seed
	}
	return pol
}

// colorings are the altered colourings of Tables II and III, by name.
var colorings = map[string]func(core.CostSpec, int) core.CostSpec{
	"bad":     bench.BadColoring,
	"invalid": func(s core.CostSpec, _ int) core.CostSpec { return bench.InvalidColoring(s) },
}

// sim runs the named benchmark under pol on p simulated cores, its
// colouring altered by the named colorings entry ("" for none).
func (c Config) sim(name string, p int, pol core.Policy, coloring string) *sim.Result {
	k := runKey{kind: "sim", bench: name, p: p, pol: c.policy(pol), cost: c.Cost, coloring: coloring}
	return once(c.memo, k, func() (*sim.Result, error) {
		spec, sink := c.bench(name).Model(p)
		if alter := colorings[coloring]; alter != nil {
			spec = alter(spec, p)
		}
		return sim.Run(spec, sink, sim.Options{Workers: p, Policy: k.pol, Cost: c.Cost})
	})
}

// openMP runs the named benchmark's OpenMP formulation under sched.
func (c Config) openMP(name string, p int, sched omp.Schedule) *simomp.Result {
	k := runKey{kind: "omp", bench: name, p: p, cost: c.Cost, sched: sched}
	return once(c.memo, k, func() (*simomp.Result, error) {
		return simomp.Run(p, numa.Paper(p), c.Cost, sched, c.bench(name).Sweeps(p))
	})
}

func itoa(p int) string { return strconv.Itoa(p) }

// table1Report builds the benchmark-configuration table (Table I).
func table1Report(cfg Config) *perf.Report {
	rep := cfg.newReport("table1")
	t := perf.NewTable("table1",
		"Table I: benchmark configurations and serial execution time",
		"benchmark",
		perf.M("iterations", "", perf.Neutral),
		perf.M("graph_nodes", "", perf.Neutral),
		perf.M("serial_mcycles", "Mcycles", perf.Neutral))
	t.LabelCols = []string{"description", "problem_size"}
	for _, name := range cfg.Benchmarks {
		info := cfg.bench(name).Info()
		t.AddLabeledRow(info.Name,
			map[string]string{"description": info.Description, "problem_size": info.ProblemSize},
			map[string]float64{
				"iterations":     float64(info.Iterations),
				"graph_nodes":    float64(info.Nodes),
				"serial_mcycles": float64(cfg.serial(name)) / 1e6,
			})
	}
	rep.AddTable(t)
	return rep
}

// fig6Report builds speedup-vs-cores for every benchmark under all four
// schedulers.
func fig6Report(cfg Config) *perf.Report {
	rep := cfg.newReport("fig6")
	for _, name := range cfg.Benchmarks {
		serial := float64(cfg.serial(name))
		t := perf.NewTable("fig6/"+name,
			fmt.Sprintf("Fig 6 (%s): speedup over serial", name),
			"P",
			perf.M("speedup_omp_static", "x", perf.HigherIsBetter),
			perf.M("speedup_omp_guided", "x", perf.HigherIsBetter),
			perf.M("speedup_nabbit", "x", perf.HigherIsBetter),
			perf.M("speedup_nabbitc", "x", perf.HigherIsBetter))
		for _, p := range cfg.Cores {
			t.AddRow(itoa(p), map[string]float64{
				"speedup_omp_static": serial / float64(cfg.openMP(name, p, omp.Static).Time),
				"speedup_omp_guided": serial / float64(cfg.openMP(name, p, omp.Guided).Time),
				"speedup_nabbit":     serial / float64(cfg.sim(name, p, core.NabbitPolicy(), "").Makespan),
				"speedup_nabbitc":    serial / float64(cfg.sim(name, p, core.NabbitCPolicy(), "").Makespan),
			})
		}
		rep.AddTable(t)
	}
	return rep
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
func fig7Report(cfg Config) *perf.Report {
	rep := cfg.newReport("fig7")
	for _, name := range cfg.Benchmarks {
		t := perf.NewTable("fig7/"+name,
			fmt.Sprintf("Fig 7 (%s): %% accesses to remote NUMA domains", name),
			"P",
			perf.M("remote_pct_nabbitc", "%", perf.LowerIsBetter),
			perf.M("remote_pct_nabbit", "%", perf.LowerIsBetter),
			perf.M("remote_pct_omp_static", "%", perf.LowerIsBetter))
		for _, p := range fig7Cores(cfg.Cores) {
			t.AddRow(itoa(p), map[string]float64{
				"remote_pct_nabbitc":    cfg.sim(name, p, core.NabbitCPolicy(), "").RemotePercent(),
				"remote_pct_nabbit":     cfg.sim(name, p, core.NabbitPolicy(), "").RemotePercent(),
				"remote_pct_omp_static": cfg.openMP(name, p, omp.Static).RemotePercent(),
			})
		}
		rep.AddTable(t)
	}
	return rep
}

// fig8Report builds average successful steals per worker.
func fig8Report(cfg Config) *perf.Report {
	rep := cfg.newReport("fig8")
	for _, name := range cfg.Benchmarks {
		t := perf.NewTable("fig8/"+name,
			fmt.Sprintf("Fig 8 (%s): average successful steals", name),
			"P",
			perf.M("steals_per_worker_nabbitc", "", perf.Neutral),
			perf.M("steals_per_worker_nabbit", "", perf.Neutral))
		for _, p := range cfg.Cores {
			if p < 2 {
				continue
			}
			t.AddRow(itoa(p), map[string]float64{
				"steals_per_worker_nabbitc": cfg.sim(name, p, core.NabbitCPolicy(), "").AvgSuccessfulSteals(),
				"steals_per_worker_nabbit":  cfg.sim(name, p, core.NabbitPolicy(), "").AvgSuccessfulSteals(),
			})
		}
		rep.AddTable(t)
	}
	return rep
}

// fig9Report builds the average idle time before first work (forced first
// colored steal) for the heat benchmark, like the paper ("we observed
// this time was the same for all benchmarks").
func fig9Report(cfg Config) *perf.Report {
	rep := cfg.newReport("fig9")
	t := perf.NewTable("fig9/heat",
		"Fig 9 (heat): idle time due to forcing the first colored steal",
		"P",
		perf.M("time_to_first_work_kcycles", "kcycles", perf.LowerIsBetter),
		perf.M("first_steal_checks", "", perf.Neutral))
	for _, p := range cfg.Cores {
		nc := cfg.sim("heat", p, core.NabbitCPolicy(), "")
		t.AddRow(itoa(p), map[string]float64{
			"time_to_first_work_kcycles": float64(nc.AvgTimeToFirstWork()) / 1e3,
			"first_steal_checks":         float64(nc.FirstStealChecks()),
		})
	}
	rep.AddTable(t)
	return rep
}

// coloringReport builds NabbitC-with-altered-coloring speedup over Nabbit
// for every benchmark at 20-80 cores (the shape of Tables II and III).
func coloringReport(cfg Config, name, caption, coloring string) *perf.Report {
	rep := cfg.newReport(name)
	metrics := make([]perf.Metric, len(cfg.Benchmarks))
	for i, b := range cfg.Benchmarks {
		metrics[i] = perf.M("speedup_vs_nabbit/"+b, "x", perf.HigherIsBetter)
	}
	t := perf.NewTable(name, caption, "P", metrics...)
	for _, p := range fig7Cores(cfg.Cores) {
		row := make(map[string]float64, len(cfg.Benchmarks))
		for _, b := range cfg.Benchmarks {
			nb := cfg.sim(b, p, core.NabbitPolicy(), "")
			nc := cfg.sim(b, p, core.NabbitCPolicy(), coloring)
			row["speedup_vs_nabbit/"+b] = float64(nb.Makespan) / float64(nc.Makespan)
		}
		t.AddRow(itoa(p), row)
	}
	rep.AddTable(t)
	return rep
}

// table2Report is the bad-coloring ablation: valid colors pointing at the
// wrong domain.
func table2Report(cfg Config) *perf.Report {
	return coloringReport(cfg, "table2",
		"Table II: speedup of NabbitC over Nabbit under a bad (valid but wrong) coloring", "bad")
}

// table3Report is the invalid-coloring ablation: colors no worker owns, so
// all colored steals fail.
func table3Report(cfg Config) *perf.Report {
	return coloringReport(cfg, "table3",
		"Table III: speedup of NabbitC over Nabbit under an invalid coloring", "invalid")
}

// hierReport is the hierarchical-stealing ablation: for every benchmark it
// compares Nabbit, flat NabbitC, and NabbitC with the socket-tier colored
// steal protocol plus batched cross-socket steals (NabbitC-hier), and
// reports where the hierarchical policy's steals were served from.
func hierReport(cfg Config) *perf.Report {
	rep := cfg.newReport("hier")
	for _, name := range cfg.Benchmarks {
		serial := float64(cfg.serial(name))
		t := perf.NewTable("hier/"+name,
			fmt.Sprintf("Hier ablation (%s): flat vs socket-tier colored stealing", name),
			"P",
			perf.M("speedup_nabbit", "x", perf.HigherIsBetter),
			perf.M("speedup_nabbitc", "x", perf.HigherIsBetter),
			perf.M("speedup_hier", "x", perf.HigherIsBetter),
			perf.M("hier_vs_flat", "x", perf.HigherIsBetter),
			perf.M("hier_remote_pct", "%", perf.LowerIsBetter),
			perf.M("socket_steal_pct", "%", perf.Neutral),
			perf.M("avg_batch", "", perf.Neutral))
		for _, p := range cfg.Cores {
			nb := cfg.sim(name, p, core.NabbitPolicy(), "")
			nc := cfg.sim(name, p, core.NabbitCPolicy(), "")
			nh := cfg.sim(name, p, core.NabbitCHierPolicy(), "")
			t.AddRow(itoa(p), map[string]float64{
				"speedup_nabbit":   serial / float64(nb.Makespan),
				"speedup_nabbitc":  serial / float64(nc.Makespan),
				"speedup_hier":     serial / float64(nh.Makespan),
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
		p := slices.Max(cfg.Cores)
		nh := cfg.sim(name, p, core.NabbitCHierPolicy(), "")
		nhm := nh.Metrics()
		tt := perf.NewTable(fmt.Sprintf("hier/%s/tiers", name),
			fmt.Sprintf("Hier ablation (%s, P=%d): steal-tier anatomy", name, p),
			"tier",
			perf.M("attempts", "", perf.Neutral),
			perf.M("steals", "", perf.Neutral),
			perf.M("hit_rate", "", perf.Neutral))
		for tier := core.StealTier(0); tier < core.NumStealTiers; tier++ {
			tt.AddRow(tier.String(), map[string]float64{
				"attempts": nhm["tier_attempts/"+tier.String()],
				"steals":   nhm["tier_steals/"+tier.String()],
				"hit_rate": nh.TierHitRate(tier),
			})
		}
		rep.AddTable(tt)
	}
	return rep
}

// ablateReport sweeps NabbitC's design knobs on heat and page-uk-2002 at
// the largest core count: the colored-steal attempt budget, the forced
// first colored steal, and the machine's remote penalty.
func ablateReport(cfg Config) *perf.Report {
	p := slices.Max(cfg.Cores)
	rep := cfg.newReport("ablate")
	for _, name := range []string{"heat", "page-uk-2002"} {
		serial := float64(cfg.serial(name))

		t := perf.NewTable(fmt.Sprintf("ablate/%s/colored-attempts", name),
			fmt.Sprintf("Ablation (%s, P=%d): colored-steal attempt budget", name, p),
			"colored_steal_attempts",
			perf.M("speedup", "x", perf.HigherIsBetter),
			perf.M("remote_pct", "%", perf.LowerIsBetter),
			perf.M("steals_per_worker", "", perf.Neutral))
		for _, k := range []int{1, 2, 4, 8, 16} {
			pol := core.NabbitCPolicy()
			pol.ColoredStealAttempts = k
			res := cfg.sim(name, p, pol, "")
			t.AddRow(itoa(k), map[string]float64{
				"speedup":           serial / float64(res.Makespan),
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
			res := cfg.sim(name, p, pol, "")
			t.AddRow(strconv.FormatBool(force), map[string]float64{
				"speedup":            serial / float64(res.Makespan),
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
			c2 := cfg
			c2.Cost.RemotePenalty = pen
			serial2 := float64(c2.serial(name))
			nc := c2.sim(name, p, core.NabbitCPolicy(), "")
			nb := c2.sim(name, p, core.NabbitPolicy(), "")
			t.AddRow(strconv.FormatFloat(pen, 'g', -1, 64), map[string]float64{
				"speedup_nabbitc":   serial2 / float64(nc.Makespan),
				"speedup_nabbit":    serial2 / float64(nb.Makespan),
				"nabbitc_vs_nabbit": float64(nb.Makespan) / float64(nc.Makespan),
			})
		}
		rep.AddTable(t)
	}
	return rep
}
