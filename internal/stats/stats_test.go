package stats

import (
	"strings"
	"testing"
)

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
