package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The -deque flag must be validated before any workload runs, in both the
// experiment and bench modes: an unknown backend is a usage error (exit
// 2), never a fallback to some default substrate.
func TestDequeFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func([]string) int
		args []string
		want int
	}{
		{"experiments/bogus", runExperiments, []string{"-deque", "bogus"}, 2},
		{"experiments/empty", runExperiments, []string{"-deque", ""}, 2},
		{"experiments/block", runExperiments, []string{"-deque", "block"}, 2},
		{"bench/bogus", runBench, []string{"-deque", "bogus"}, 2},
		{"bench/casing", runBench, []string{"-deque", "ChaseLev"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(tc.args); got != tc.want {
				t.Fatalf("%v: exit %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// The chaos trio -fault-rate/-fault-kinds/-retries must be validated
// before any workload runs, in both modes: out-of-range rates, unknown
// kind names, and oversized retry budgets are usage errors (exit 2).
func TestFaultFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func([]string) int
		args []string
		want int
	}{
		{"experiments/rate-too-high", runExperiments, []string{"-fault-rate", "1.5"}, 2},
		{"experiments/rate-nan", runExperiments, []string{"-fault-rate", "NaN"}, 2},
		{"experiments/kinds-bogus", runExperiments, []string{"-fault-kinds", "transient,bogus"}, 2},
		{"experiments/kinds-casing", runExperiments, []string{"-fault-kinds", "Transient"}, 2},
		{"experiments/retries-negative", runExperiments, []string{"-retries", "-1"}, 2},
		{"experiments/retries-over-cap", runExperiments, []string{"-retries", "9"}, 2},
		{"bench/rate-too-high", runBench, []string{"-fault-rate", "2"}, 2},
		{"bench/kinds-bogus", runBench, []string{"-fault-kinds", "segfault"}, 2},
		{"bench/retries-over-cap", runBench, []string{"-retries", "100"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(tc.args); got != tc.want {
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

// A valid -deque value must reach the harness: the steal experiment runs
// to completion (exit 0) and emits parseable output under every backend
// name the flag documents.
func TestDequeFlagAccepted(t *testing.T) {
	for _, dq := range []string{"auto", "mutex", "chaselev"} {
		t.Run(dq, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "steal.json")
			args := []string{
				"-experiment", "steal", "-scale", "small",
				"-deque", dq, "-format", "json", "-out", out,
			}
			if got := runExperiments(args); got != 0 {
				t.Fatalf("%v: exit %d, want 0", args, got)
			}
			if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
				t.Fatalf("%v: no output written (err=%v)", args, err)
			}
		})
	}
}
