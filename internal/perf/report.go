package perf

import (
	"fmt"
	"math"
)

// SchemaVersion is the current JSON schema version (see the package
// comment for the versioning policy).
const SchemaVersion = 1

// KindSim is the one document kind: every harness experiment is
// deterministic, so its values are reproducible. Wall-clock measurements
// live in the benchmark module (benchmarks/), not in this schema.
const KindSim = "sim"

// Direction declares which way a metric improves, so a reader of the
// document can tell a better value from a worse one.
type Direction string

const (
	// HigherIsBetter marks metrics like speedup: a drop is a regression.
	HigherIsBetter Direction = "higher_better"
	// LowerIsBetter marks metrics like cycles or remote %: a rise is a
	// regression.
	LowerIsBetter Direction = "lower_better"
	// Neutral marks descriptive metrics (counts, configuration echoes)
	// that are neither better nor worse when they move.
	Neutral Direction = "neutral"
)

func (d Direction) valid() bool {
	switch d {
	case HigherIsBetter, LowerIsBetter, Neutral:
		return true
	}
	return false
}

// Metric describes one named column of a table.
type Metric struct {
	// Name is the stable identifier used as the row-value key and as the
	// rendered column header.
	Name string `json:"name"`
	// Unit is a display hint ("cycles", "ns", "%", "x").
	Unit string `json:"unit,omitempty"`
	// Direction tells a reader how to judge a change.
	Direction Direction `json:"direction"`
}

// M is shorthand for constructing a Metric.
func M(name, unit string, dir Direction) Metric {
	return Metric{Name: name, Unit: unit, Direction: dir}
}

// Row is one keyed observation: a point on a sweep (key "P=20"), one
// benchmark (key "heat"), or one (benchmark, policy) pair.
type Row struct {
	// Key identifies the row within its table: (report, table, key) names
	// one row of a document.
	Key string `json:"key"`
	// Labels carries non-numeric descriptive cells (e.g. Table I's
	// description column).
	Labels map[string]string `json:"labels,omitempty"`
	// Values maps metric name to value.
	Values map[string]float64 `json:"values"`
}

// Table is one rendered table/figure: an ordered set of metrics over
// keyed rows.
type Table struct {
	// Name is the table's stable identifier within a document, e.g.
	// "fig6/heat".
	Name string `json:"name"`
	// Caption is the human-readable title.
	Caption string `json:"caption,omitempty"`
	// KeyName is the rendered header of the key column ("P",
	// "Benchmark", ...).
	KeyName string `json:"key_name"`
	// LabelCols orders the label columns for rendering.
	LabelCols []string `json:"label_cols,omitempty"`
	// Metrics orders the value columns for rendering.
	Metrics []Metric `json:"metrics"`
	// Rows holds the observations in row order.
	Rows []Row `json:"rows"`
}

// NewTable constructs a table with the given identity and metric columns.
func NewTable(name, caption, keyName string, metrics ...Metric) *Table {
	return &Table{Name: name, Caption: caption, KeyName: keyName, Metrics: metrics}
}

// AddRow appends a keyed row of metric values.
func (t *Table) AddRow(key string, values map[string]float64) {
	t.Rows = append(t.Rows, Row{Key: key, Values: values})
}

// AddLabeledRow appends a keyed row with label cells and metric values.
func (t *Table) AddLabeledRow(key string, labels map[string]string, values map[string]float64) {
	t.Rows = append(t.Rows, Row{Key: key, Labels: labels, Values: values})
}

// RunConfig echoes the configuration a report was generated under, so
// two documents can be told apart by how they were made.
type RunConfig struct {
	Scale      string             `json:"scale,omitempty"`
	Cores      []int              `json:"cores,omitempty"`
	Benchmarks []string           `json:"benchmarks,omitempty"`
	Cost       map[string]float64 `json:"cost,omitempty"`
}

// Report is every table one experiment produced.
type Report struct {
	// Experiment is the harness experiment name (fig6, table2, hier,
	// ...).
	Experiment string    `json:"experiment"`
	Config     RunConfig `json:"config"`
	Tables     []*Table  `json:"tables"`
}

// AddTable appends a table to the report.
func (r *Report) AddTable(t *Table) { r.Tables = append(r.Tables, t) }

// Document is the versioned envelope a run emits.
type Document struct {
	SchemaVersion int `json:"schema_version"`
	// Kind is KindSim.
	Kind    string    `json:"kind"`
	Reports []*Report `json:"reports"`
}

// NewDocument returns an empty document of the given kind at the current
// schema version.
func NewDocument(kind string) *Document {
	return &Document{SchemaVersion: SchemaVersion, Kind: kind}
}

// AddReport appends a report to the document.
func (d *Document) AddReport(r *Report) { d.Reports = append(d.Reports, r) }

// Validate checks structural invariants: a known schema version and kind,
// unique report/table/row identities, declared directions, and finite
// metric values that reference declared metrics. Encode and Decode both
// call it, so an invalid document can neither be written nor accepted.
func (d *Document) Validate() error {
	if d.SchemaVersion <= 0 {
		return fmt.Errorf("perf: missing schema_version (want %d)", SchemaVersion)
	}
	if d.SchemaVersion > SchemaVersion {
		return fmt.Errorf("perf: schema_version %d is newer than this tool understands (%d)",
			d.SchemaVersion, SchemaVersion)
	}
	if d.Kind != KindSim {
		return fmt.Errorf("perf: unknown document kind %q", d.Kind)
	}
	seenRep := map[string]bool{}
	for _, rep := range d.Reports {
		if rep.Experiment == "" {
			return fmt.Errorf("perf: report with empty experiment name")
		}
		if seenRep[rep.Experiment] {
			return fmt.Errorf("perf: duplicate report %q", rep.Experiment)
		}
		seenRep[rep.Experiment] = true
		seenTab := map[string]bool{}
		for _, t := range rep.Tables {
			if t.Name == "" {
				return fmt.Errorf("perf: %s: table with empty name", rep.Experiment)
			}
			if seenTab[t.Name] {
				return fmt.Errorf("perf: %s: duplicate table %q", rep.Experiment, t.Name)
			}
			seenTab[t.Name] = true
			metrics := map[string]bool{}
			for _, m := range t.Metrics {
				if m.Name == "" {
					return fmt.Errorf("perf: %s/%s: metric with empty name", rep.Experiment, t.Name)
				}
				if metrics[m.Name] {
					return fmt.Errorf("perf: %s/%s: duplicate metric %q", rep.Experiment, t.Name, m.Name)
				}
				if !m.Direction.valid() {
					return fmt.Errorf("perf: %s/%s: metric %q has invalid direction %q",
						rep.Experiment, t.Name, m.Name, m.Direction)
				}
				metrics[m.Name] = true
			}
			seenKey := map[string]bool{}
			for _, row := range t.Rows {
				if row.Key == "" {
					return fmt.Errorf("perf: %s/%s: row with empty key", rep.Experiment, t.Name)
				}
				if seenKey[row.Key] {
					return fmt.Errorf("perf: %s/%s: duplicate row key %q", rep.Experiment, t.Name, row.Key)
				}
				seenKey[row.Key] = true
				for name, v := range row.Values {
					if !metrics[name] {
						return fmt.Errorf("perf: %s/%s row %q: value for undeclared metric %q",
							rep.Experiment, t.Name, row.Key, name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("perf: %s/%s row %q: metric %q is not finite (%v)",
							rep.Experiment, t.Name, row.Key, name, v)
					}
				}
			}
		}
	}
	return nil
}
