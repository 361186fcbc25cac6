package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty not 0")
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("mean = %v", m)
	}
}

func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		min, max := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			min = math.Min(min, xs[i])
			max = math.Max(max, xs[i])
		}
		m := Mean(xs)
		return m >= min-1e-9 && m <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("a-much-longer-name", 22)
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "1.50") {
		t.Fatalf("float not formatted: %q", lines[2])
	}
	// Columns aligned: all rows same width.
	w := len(lines[1])
	for _, l := range lines[2:] {
		if len(strings.TrimRight(l, " ")) > w {
			t.Fatalf("row wider than separator:\n%s", s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, 2)
	want := "a,b\n1,2\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
