package nabbitc

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds is the source-compatibility guard for the
// repository's benchmark. benchmarks/nabbitperf is a module of its own
// (so `go build ./... && go test ./...` here never descends into it) that
// compiles against internal packages through a replace directive:
// deque.Entry[T]{Value, Colors}, deque.Queue[T] and the three
// constructors, colorset.Of/Has, core.NewNodeStore + GetOrCreate/Count,
// core.NewEngine/Options/Policy/Stats/Ticket. A change that breaks any of
// those breaks the benchmark every later change is judged by, so vet it
// from tier-1. Skipped in -short mode (it type-checks a second module).
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module; skipped in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	cmd := exec.Command(gobin, "vet", ".")
	cmd.Dir = "benchmarks/nabbitperf"
	// The same hermetic settings benchmarks/run.sh builds under.
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet . in benchmarks/nabbitperf: %v\n%s", err, out)
	}
}
