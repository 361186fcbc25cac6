package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3,4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3,0) = %v, want 0", got)
	}
}

// Every aligned pair of blocks must hold both slice orders, and so must
// the traced and the untraced blocks of a traced run.
func TestABBA(t *testing.T) {
	for b := 0; b < 16; b += 2 {
		if refFirst(b) == refFirst(b+1) {
			t.Errorf("blocks %d and %d run their slices in the same order", b, b+1)
		}
		if tracedBlock(b) != tracedBlock(b+1) {
			t.Errorf("blocks %d and %d differ in tracing: a set would hold one order only", b, b+1)
		}
	}
	on := 0
	for b := 0; b < 16; b++ {
		if tracedBlock(b) {
			on++
		}
	}
	if on != 8 {
		t.Errorf("%d of 16 blocks traced, want half", on)
	}
}

// Self time is a span's length minus the union of its children, so
// overlapping children (submit-hi's open operations) are not counted twice.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{kind: spEngSlice, parent: noSpan, start: 0, end: 100},
		{kind: spOp, parent: 0, start: 10, end: 50},
		{kind: spOp, parent: 0, start: 30, end: 70},
		{kind: spSubmit, parent: 1, start: 10, end: 15},
	}}
	self, count := tr.selfTimes()
	if self[spEngSlice] != 40 || self[spOp] != 75 || self[spSubmit] != 5 {
		t.Errorf("self times = slice %d, op %d, submit %d; want 40, 75, 5",
			self[spEngSlice], self[spOp], self[spSubmit])
	}
	if count[spOp] != 2 {
		t.Errorf("op count = %d, want 2", count[spOp])
	}
}

func TestCalibratorKeepsHeap(t *testing.T) {
	c := newCalibrator(7)
	c.op()
	for i := 1; i < len(c.heap); i++ {
		if c.heap[(i-1)/2] > c.heap[i] {
			t.Fatalf("heap order broken at %d", i)
		}
	}
}

func quickConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 3, seconds: 1, quick: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json")}
}

// Work is fixed per block, so two quick runs at one seed attempt the same
// operations; every operation checks its own task and node counts, so no
// failures means those repeated exactly too.
func TestQuickRunsRepeat(t *testing.T) {
	for _, w := range workloadNames {
		a, err := endToEnd(quickConfig(t, w))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := endToEnd(quickConfig(t, w))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if a.attempted != b.attempted || a.attempted == 0 {
			t.Errorf("%s: attempted %d then %d operations", w, a.attempted, b.attempted)
		}
		if a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: %d and %d operations failed", w, a.failed, b.failed)
		}
	}
}

// The metric names and units the program prints are the ones
// BENCHMARK.json promises, in both modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !equalSets(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	check := func(mode string, got []metric, want []struct{ Name, Unit string }) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.name+" "+m.unit)
		}
		for _, m := range want {
			w = append(w, m.Name+" "+m.Unit)
		}
		if !equalSets(g, w) {
			t.Errorf("%s metrics differ:\nprogram %v\nBENCHMARK.json %v", mode, g, w)
		}
	}
	e, err := endToEnd(quickConfig(t, "fine-grid"))
	if err != nil {
		t.Fatal(err)
	}
	check("end-to-end", e.metrics, doc.EndToEnd)
	l, err := traced(quickConfig(t, "submit-hi"))
	if err != nil {
		t.Fatal(err)
	}
	check("per-layer", l.metrics, doc.PerLayer)
	if l.failed != 0 {
		t.Errorf("traced run: %d operations failed", l.failed)
	}
}

func equalSets(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
