package stencil

import (
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
)

// TestStepSpecMatchesSerial drives each stencil through the persistent-
// engine formulation — one Engine over the single-sweep StepSpec, one
// Execute per sweep — and requires the bitwise checksum of the serial
// run. This is the correctness pin for engine reuse on real data: a stale
// node, a missed arena reset, or a lost wakeup would corrupt or hang it.
func TestStepSpecMatchesSerial(t *testing.T) {
	builders := map[string]func(bench.Scale) *Stencil{
		"heat": Heat, "fdtd": FDTD, "life": Life,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			serial := build(bench.ScaleSmall).NewReal()
			serial.RunSerial()

			stepped := build(bench.ScaleSmall).NewReal()
			spec, sink := stepped.StepSpec(8)
			e, err := core.NewEngine(spec, core.Options{Workers: 8, Policy: core.NabbitCPolicy()})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for s := 0; s < stepped.Steps(); s++ {
				st, err := e.Execute(sink)
				if err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				if st.Replayed != (s > 0) {
					t.Fatalf("step %d: Replayed = %v, want %v", s, st.Replayed, s > 0)
				}
				stepped.Advance()
			}
			if got, want := stepped.Checksum(), serial.Checksum(); got != want {
				t.Fatalf("stepped checksum %v != serial %v", got, want)
			}
		})
	}
}
