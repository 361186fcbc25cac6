package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The chaos trio -fault-rate/-fault-kinds/-retries must be validated
// before any workload runs: out-of-range rates, unknown kind names, and
// oversized retry budgets are usage errors (exit 2).
func TestFaultFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"experiments/rate-too-high", []string{"-fault-rate", "1.5"}, 2},
		{"experiments/rate-nan", []string{"-fault-rate", "NaN"}, 2},
		{"experiments/kinds-bogus", []string{"-fault-kinds", "transient,bogus"}, 2},
		{"experiments/kinds-casing", []string{"-fault-kinds", "Transient"}, 2},
		{"experiments/retries-negative", []string{"-retries", "-1"}, 2},
		{"experiments/retries-over-cap", []string{"-retries", "9"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runExperiments(tc.args); got != tc.want {
				t.Fatalf("%v: exit %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// Valid fault overrides must reach the harness: the retry experiment runs
// to completion with an overridden rate, kind set, and attempt budget,
// and emits parseable output.
func TestFaultFlagsAccepted(t *testing.T) {
	out := filepath.Join(t.TempDir(), "retry.json")
	args := []string{
		"-experiment", "retry", "-scale", "small",
		"-fault-rate", "0.25", "-fault-kinds", "transient,error", "-retries", "4",
		"-format", "json", "-out", out,
	}
	if got := runExperiments(args); got != 0 {
		t.Fatalf("%v: exit %d, want 0", args, got)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("%v: no output written (err=%v)", args, err)
	}
}
