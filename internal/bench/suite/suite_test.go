package suite

import (
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
)

func TestNamesMatchTableI(t *testing.T) {
	want := []string{"cg", "mg", "heat", "fdtd", "life", "page-uk-2002",
		"page-twitter-2010", "page-uk-2007-05", "sw", "swn2"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestBuildAllSmall(t *testing.T) {
	for _, b := range BuildAll(bench.ScaleSmall) {
		info := b.Info()
		if info.Name == "" || info.Nodes <= 0 {
			t.Fatalf("bad info: %+v", info)
		}
		// Every model must be a valid DAG.
		spec, sink := b.Model(4)
		if _, err := core.TopoOrder(spec, sink, 0); err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if len(b.Sweeps(4)) == 0 {
			t.Fatalf("%s: no sweeps", info.Name)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope", bench.ScaleSmall); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
