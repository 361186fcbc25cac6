package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
	"nabbitc/internal/perf"
)

func smallCfg(buf *bytes.Buffer) Config {
	return Config{
		Scale:      bench.ScaleSmall,
		Cores:      []int{1, 4, 20},
		Benchmarks: []string{"heat", "cg"},
		Out:        buf,
	}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, exp := range Experiments() {
		var buf bytes.Buffer
		cfg := smallCfg(&buf)
		if exp == "ablate" {
			cfg.Benchmarks = nil // ablate picks its own benchmarks
		}
		if err := Run(exp, cfg); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", smallCfg(&buf)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Benchmarks = []string{"bogus"}
	if err := Run("table1", cfg); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCSVOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Format = FormatCSV
	if err := Run("table1", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "benchmark,description") {
		t.Fatalf("no CSV header in output:\n%s", buf.String())
	}
}

func TestJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Format = FormatJSON
	if err := Run("fig6", cfg); err != nil {
		t.Fatal(err)
	}
	doc, err := perf.Decode(&buf)
	if err != nil {
		t.Fatalf("emitted JSON does not decode: %v", err)
	}
	if doc.Kind != perf.KindSim || doc.SchemaVersion != perf.SchemaVersion {
		t.Fatalf("bad envelope: kind=%q version=%d", doc.Kind, doc.SchemaVersion)
	}
	if len(doc.Reports) != 1 || doc.Reports[0].Experiment != "fig6" {
		t.Fatalf("expected one fig6 report, got %+v", doc.Reports)
	}
	// One table per benchmark, one row per core count, four schedulers.
	rep := doc.Reports[0]
	if len(rep.Tables) != 2 {
		t.Fatalf("expected 2 tables (heat, cg), got %d", len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		if len(tab.Rows) != 3 {
			t.Fatalf("%s: expected 3 rows, got %d", tab.Name, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if len(row.Values) != 4 {
				t.Fatalf("%s[%s]: expected 4 scheduler metrics, got %v", tab.Name, row.Key, row.Values)
			}
		}
	}
}

// TestJSONDeterministic is the acceptance property the baseline pin rests
// on: the same config encodes to byte-identical JSON, run to run.
func TestJSONDeterministic(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		cfg := smallCfg(&buf)
		cfg.Format = FormatJSON
		if err := Run("fig6", cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := emit(), emit()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs emitted different JSON:\n%s\n---\n%s", a, b)
	}
}

func TestFig6SpeedupShapes(t *testing.T) {
	// The headline result at small scale: on heat at 20 cores, NabbitC
	// must beat Nabbit. Parse nothing — re-run the pieces directly.
	cfg := smallCfg(nil).withDefaults()
	cfg.memo = memo{}
	serial := float64(cfg.serial("heat"))
	sNC := serial / float64(cfg.sim("heat", 20, core.NabbitCPolicy(), "").Makespan)
	sNB := serial / float64(cfg.sim("heat", 20, core.NabbitPolicy(), "").Makespan)
	if sNC <= sNB {
		t.Fatalf("NabbitC speedup %.2f not above Nabbit %.2f on heat/P=20", sNC, sNB)
	}
	if sNC < 5 {
		t.Fatalf("NabbitC speedup %.2f unreasonably low at P=20", sNC)
	}
}

// TestConfigSeedChangesSchedules checks the -seed plumbing actually
// reaches the simulator: equal seeds must reproduce the fig8 document
// byte for byte, and different seeds must change it.
func TestConfigSeedChangesSchedules(t *testing.T) {
	emit := func(seed uint64) string {
		t.Helper()
		cfg := Config{Scale: bench.ScaleSmall, Cores: []int{1, 20}, Benchmarks: []string{"heat"}, Seed: seed}
		doc, err := Document("fig8", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := perf.Encode(&buf, doc); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if emit(7) != emit(7) {
		t.Fatal("equal seeds produced different fig8 documents")
	}
	if emit(7) == emit(8) {
		// Not strictly impossible, but at small scale heat steals enough
		// that two seeds colliding on every counter would be a plumbing
		// bug, not luck.
		t.Fatal("different seeds produced identical fig8 documents — seed not plumbed?")
	}
}

// A benchmark or core count named twice would key two rows alike: Config.Check
// refuses it, and Reports runs that check before building anything.
func TestReportsRejectsRepeats(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"cores", func(c *Config) { c.Cores = []int{20, 4, 20} }, "core count 20 named twice"},
		{"zero cores", func(c *Config) { c.Cores = []int{0} }, "bad core count 0"},
		{"bench", func(c *Config) { c.Benchmarks = []string{"heat", "cg", "heat"} }, `benchmark "heat" named twice`},
		{"format", func(c *Config) { c.Format = "xml" }, `unknown format "xml"`},
	} {
		cfg := smallCfg(nil)
		tc.edit(&cfg)
		if err := cfg.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := Reports("all", cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Reports = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// ablate and hier's tier table run at the largest core count, wherever it
// sits in the sweep.
func TestLargestCoreCountNotLast(t *testing.T) {
	cfg := Config{Scale: bench.ScaleSmall, Cores: []int{20, 4}, Benchmarks: []string{"heat"}}
	reports, err := Reports("all", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range []string{"heat", "page-uk-2002"} {
		want["ablate/"+name+"/colored-attempts"] = true
		want["ablate/"+name+"/first-steal"] = true
		want["ablate/"+name+"/remote-penalty"] = true
	}
	want["hier/heat/tiers"] = true
	for _, rep := range reports {
		for _, tab := range rep.Tables {
			if !want[tab.Name] {
				continue
			}
			delete(want, tab.Name)
			if !strings.Contains(tab.Caption, "P=20)") {
				t.Errorf("%s: caption %q, want P=20", tab.Name, tab.Caption)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("tables missing: %v", want)
	}
	cfg = cfg.withDefaults()
	cfg.memo = memo{}
	nh := cfg.sim("heat", 20, core.NabbitCHierPolicy(), "")
	tiers := reports[len(reports)-1].Tables[1]
	for i, row := range tiers.Rows {
		if got, want := row.Values["hit_rate"], nh.TierHitRate(core.StealTier(i)); got != want {
			t.Errorf("tier %s: hit_rate %v, want %v (the P=20 run's)", row.Key, got, want)
		}
	}
}

// Every experiment built alone encodes exactly as it does inside "all":
// the experiments share memoized results, and no renderer may change one
// another experiment reads.
func TestExperimentAloneMatchesAll(t *testing.T) {
	cfg := Config{Scale: bench.ScaleSmall, Cores: []int{1, 20, 80}}
	all, err := Reports("all", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range Experiments() {
		alone, err := Reports(exp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(alone[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(all[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s alone differs from %s in all:\n%s\n---\n%s", exp, exp, a, b)
		}
	}
}

// A failed build or run is returned as an error naming its experiment;
// any other panic is not an experiment's failure and is re-raised.
func TestReportFailureBoundary(t *testing.T) {
	cfg := smallCfg(nil).withDefaults()
	cfg.memo = memo{}
	_, err := cfg.report(experiment{"boom", func(c Config) *perf.Report {
		c.sim("bogus", 4, core.NabbitPolicy(), "")
		return nil
	}})
	if err == nil || !strings.HasPrefix(err.Error(), "boom: ") || !strings.Contains(err.Error(), `unknown benchmark "bogus"`) {
		t.Fatalf("report error = %v, want it prefixed with the experiment and naming the benchmark", err)
	}

	defer func() {
		if v := recover(); v != "not a failure" {
			t.Fatalf("recovered %v, want the builder's own panic", v)
		}
	}()
	cfg.report(experiment{"boom", func(Config) *perf.Report { panic("not a failure") }})
	t.Fatal("a builder's panic was swallowed")
}
