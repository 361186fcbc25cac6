package harness

import (
	"bytes"
	"strings"
	"testing"

	"nabbitc/internal/bench"
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

// TestJSONDeterministic is the acceptance property the perf gate rests
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

// TestSelfCompare: a document compared against itself passes the gate
// with geomean exactly 1; a worsened copy fails it.
func TestSelfCompare(t *testing.T) {
	cfg := smallCfg(&bytes.Buffer{})
	doc, err := Document("fig6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := Document("fig6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := perf.Compare(doc, doc2, perf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ok() || c.Geomean != 1 {
		t.Fatalf("self-compare failed: ok=%v geomean=%v regressions=%v",
			c.Ok(), c.Geomean, c.Regressions())
	}
	// Worsen one speedup by 50% — well past any tolerance.
	row := doc2.Reports[0].Tables[0].Rows[0]
	row.Values["speedup_nabbitc"] *= 0.5
	c, err = perf.Compare(doc, doc2, perf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ok() || len(c.Regressions()) != 1 {
		t.Fatalf("mutated document passed the gate: %+v", c.Regressions())
	}
}

func TestFig6SpeedupShapes(t *testing.T) {
	// The headline result at small scale: on heat at 20 cores, NabbitC
	// must beat Nabbit. Parse nothing — re-run the pieces directly.
	var buf bytes.Buffer
	cfg := smallCfg(&buf).withDefaults()
	b, err := buildHeat(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := cfg.serialTime(b)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := cfg.runTaskGraph(b, 20, nabbitCPolicy())
	if err != nil {
		t.Fatal(err)
	}
	nb, err := cfg.runTaskGraph(b, 20, nabbitPolicy())
	if err != nil {
		t.Fatal(err)
	}
	sNC := float64(serial) / float64(nc.Makespan)
	sNB := float64(serial) / float64(nb.Makespan)
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
