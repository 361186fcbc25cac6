package nabbitc

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/harness"
	"nabbitc/internal/perf"
)

// TestCheckedInBaseline pins testdata/baseline-small.json byte for byte:
// the simulated experiments are deterministic, so the document the
// harness builds in-process must equal the checked-in file exactly. A
// change that moves a schedule, a metric or the experiment list fails
// here and must regenerate the baseline in the same PR:
//
//	go run ./cmd/nabbitbench -experiment all -scale small -cores 1,20,80 \
//	    -format json -out testdata/baseline-small.json
func TestCheckedInBaseline(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the baseline was generated on amd64; on %s the compiler may fuse multiply-adds and move the float metrics", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/baseline-small.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := harness.Document("all", harness.Config{Scale: bench.ScaleSmall, Cores: []int{1, 20, 80}})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := perf.Encode(&got, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("the regenerated document differs from testdata/baseline-small.json: regenerate it with the command in this test's doc comment and review the git diff")
	}
}
