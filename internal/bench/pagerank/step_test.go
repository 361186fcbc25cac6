package pagerank

import (
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
)

// TestStepSpecMatchesSerial drives PageRank through the persistent-engine
// formulation — one Engine over the single-iteration StepSpec, one
// Execute per power iteration — and requires bitwise-identical final
// ranks against the serial run (every formulation accumulates in the same
// per-block order, so the comparison is exact).
func TestStepSpecMatchesSerial(t *testing.T) {
	pr := UK2002(bench.ScaleSmall)
	serial := pr.NewReal()
	serial.RunSerial()

	stepped := pr.NewReal()
	spec, sink := stepped.StepSpec(8)
	e, err := core.NewEngine(spec, core.Options{Workers: 8, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for s := 0; s < stepped.Steps(); s++ {
		if _, err := e.Execute(sink); err != nil {
			t.Fatalf("iteration %d: %v", s, err)
		}
		stepped.Advance()
	}
	if d := stepped.MaxDiff(serial); d != 0 {
		t.Fatalf("stepped ranks differ from serial by %v, want exact equality", d)
	}
	if got, want := stepped.Checksum(), serial.Checksum(); got != want {
		t.Fatalf("stepped checksum %v != serial %v", got, want)
	}
}

// TestIterativeGraphContract pins that the suite's iterative benchmarks
// actually satisfy the interface the persist experiment asserts.
func TestIterativeGraphContract(t *testing.T) {
	var _ bench.IterativeGraph = UK2002(bench.ScaleSmall).NewReal()
}
