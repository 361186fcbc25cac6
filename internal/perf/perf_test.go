package perf

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedDocument builds a deterministic two-report document covering every
// schema feature: labels, units, all three directions, sparse values.
func fixedDocument() *Document {
	doc := NewDocument(KindSim)

	rep := &Report{
		Experiment: "fig6",
		Config: RunConfig{
			Scale:      "small",
			Cores:      []int{1, 20},
			Benchmarks: []string{"heat"},
			Cost:       map[string]float64{"remote_penalty": 2.5, "local_byte_cost": 1},
		},
	}
	t := NewTable("fig6/heat", "Fig 6 (heat): speedup over serial", "P",
		M("speedup_nabbit", "x", HigherIsBetter),
		M("speedup_nabbitc", "x", HigherIsBetter))
	t.AddRow("1", map[string]float64{"speedup_nabbit": 0.97, "speedup_nabbitc": 0.95})
	t.AddRow("20", map[string]float64{"speedup_nabbit": 11.5, "speedup_nabbitc": 14.25})
	rep.AddTable(t)
	doc.AddReport(rep)

	rep2 := &Report{Experiment: "table1", Config: RunConfig{Scale: "small"}}
	t2 := NewTable("table1", "Table I: benchmark configurations", "benchmark",
		M("graph_nodes", "", Neutral),
		M("serial_mcycles", "Mcycles", Neutral),
		M("remote_pct", "%", LowerIsBetter))
	t2.LabelCols = []string{"description"}
	t2.AddLabeledRow("heat", map[string]string{"description": "5-point stencil"},
		map[string]float64{"graph_nodes": 400, "serial_mcycles": 12.75})
	t2.AddLabeledRow("cg", map[string]string{"description": "NAS conjugate gradient"},
		map[string]float64{"graph_nodes": 300, "serial_mcycles": 8.5, "remote_pct": 31.25})
	rep2.AddTable(t2)
	doc.AddReport(rep2)
	return doc
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/perf -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenJSON pins the JSON schema: any field rename, reorder, or
// representation change shows up as a diff against the checked-in file.
func TestGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, fixedDocument()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_report.json", buf.Bytes())
}

// TestGoldenText pins the aligned-table renderer.
func TestGoldenText(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range fixedDocument().Reports {
		if err := WriteText(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "golden_report.txt", buf.Bytes())
}

// TestGoldenCSV pins the CSV renderer.
func TestGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range fixedDocument().Reports {
		if err := WriteCSV(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "golden_report.csv", buf.Bytes())
}

// TestRoundTrip: decode(encode(doc)) == doc, so nothing is lost or
// reordered on the wire.
func TestRoundTrip(t *testing.T) {
	doc := fixedDocument()
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, got) {
		t.Fatalf("round trip changed the document:\n%#v\nvs\n%#v", doc, got)
	}
}

// TestStableOrdering: encoding is insensitive to map insertion order.
func TestStableOrdering(t *testing.T) {
	a := fixedDocument()
	b := fixedDocument()
	// Rebuild one row's value map in reverse insertion order.
	row := &b.Reports[0].Tables[0].Rows[1]
	vals := map[string]float64{}
	vals["speedup_nabbitc"] = row.Values["speedup_nabbitc"]
	vals["speedup_nabbit"] = row.Values["speedup_nabbit"]
	row.Values = vals
	var ba, bb bytes.Buffer
	if err := Encode(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("encoding depends on map insertion order")
	}
}

// TestDecodeToleratesUnknownFields: additive schema changes must not
// break old readers.
func TestDecodeToleratesUnknownFields(t *testing.T) {
	in := `{"schema_version": 1, "kind": "sim", "future_field": true, "reports": []}`
	if _, err := Decode(strings.NewReader(in)); err != nil {
		t.Fatalf("unknown field rejected: %v", err)
	}
}

func TestDecodeRejectsBadVersions(t *testing.T) {
	var valid bytes.Buffer
	if err := Encode(&valid, fixedDocument()); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{
		`{"kind": "sim", "reports": []}`,                       // missing version
		`{"schema_version": 99, "kind": "sim", "reports": []}`, // future version
		`{"schema_version": 1, "kind": "wat", "reports": []}`,  // unknown kind
		valid.String() + valid.String(),                        // a second document
		valid.String() + "garbage",                             // trailing junk
	} {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted invalid envelope %s", in)
		}
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	breakages := map[string]func(*Document){
		"duplicate report": func(d *Document) {
			d.Reports = append(d.Reports, &Report{Experiment: "fig6"})
		},
		"duplicate table": func(d *Document) {
			d.Reports[0].AddTable(&Table{Name: "fig6/heat", KeyName: "P"})
		},
		"duplicate row key": func(d *Document) {
			t := d.Reports[0].Tables[0]
			t.AddRow("20", map[string]float64{"speedup_nabbit": 1})
		},
		"undeclared metric": func(d *Document) {
			d.Reports[0].Tables[0].Rows[0].Values["mystery"] = 1
		},
		"NaN value": func(d *Document) {
			d.Reports[0].Tables[0].Rows[0].Values["speedup_nabbit"] = math.NaN()
		},
		"invalid direction": func(d *Document) {
			d.Reports[0].Tables[0].Metrics[0].Direction = "sideways"
		},
	}
	for name, corrupt := range breakages {
		doc := fixedDocument()
		corrupt(doc)
		if err := doc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken document", name)
		}
		if err := Encode(&bytes.Buffer{}, doc); err == nil {
			t.Errorf("%s: Encode wrote a broken document", name)
		}
	}
}

// TestStoreLoad: a document encoded to a file loads back unchanged.
func TestStoreLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	doc := fixedDocument()
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, got) {
		t.Fatal("Encode/Load changed the document")
	}
}
