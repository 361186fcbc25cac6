package nabbitc

import (
	"testing"

	"nabbitc/internal/harness"
	"nabbitc/internal/perf"
)

// TestCheckedInBaseline keeps testdata/baseline-small.json honest: it
// must decode under the current schema, be a sim-kind document, and cover
// exactly the harness's experiment set. Metric drift is judged by the CI
// bench-smoke job (advisory), but a baseline that no longer matches the
// schema or the experiment list must be regenerated in the same PR:
//
//	go run ./cmd/nabbitbench -experiment all -scale small -cores 1,20,80 \
//	    -format json -out testdata/baseline-small.json
func TestCheckedInBaseline(t *testing.T) {
	doc, err := perf.Load("testdata/baseline-small.json")
	if err != nil {
		t.Fatalf("baseline does not load under schema v%d: %v", perf.SchemaVersion, err)
	}
	if doc.Kind != perf.KindSim {
		t.Fatalf("baseline kind = %q, want %q", doc.Kind, perf.KindSim)
	}
	got := make([]string, len(doc.Reports))
	for i, rep := range doc.Reports {
		got[i] = rep.Experiment
	}
	want := harness.Experiments()
	if len(got) != len(want) {
		t.Fatalf("baseline covers %v, harness has %v — regenerate it", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("baseline covers %v, harness has %v — regenerate it", got, want)
		}
	}
}
