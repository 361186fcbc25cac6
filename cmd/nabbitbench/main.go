// Command nabbitbench regenerates the paper's experiments on the
// simulated NUMA machine and emits them as tables, CSV or structured JSON
// reports.
//
// Usage:
//
//	nabbitbench -experiment fig6                 # one experiment
//	nabbitbench -experiment all                  # everything
//	nabbitbench -experiment fig7 -bench heat,cg  # restrict benchmarks
//	nabbitbench -experiment fig6 -cores 1,20,80 -format csv
//	nabbitbench -experiment table2 -scale small  # quick run
//	nabbitbench -experiment all -scale small -format json -out r.json
//
//	nabbitbench validate r.json                  # schema check: exit 2 on error
//
// The experiment mode accepts -cpuprofile/-memprofile to write pprof
// profiles of the run alongside its report output, and -seed to override
// the scheduling seed (checked-in baselines use the default). All flags
// are validated before any workload runs or any file is opened, including
// that -out's parent directory exists and that no -bench or -cores value
// repeats. Wall-clock measurements of the
// real engine are the benchmark module's (benchmarks/), not this
// command's.
//
// Exit codes: 0 success, 1 an experiment failed (or its output or
// profile could not be written), 2 usage or schema error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"nabbitc/internal/bench"
	"nabbitc/internal/bench/suite"
	"nabbitc/internal/harness"
	"nabbitc/internal/perf"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "validate" {
		os.Exit(runValidate(os.Args[2:]))
	}
	os.Exit(runExperiments(os.Args[1:]))
}

// fail prints to stderr and returns the given exit code.
func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return code
}

// checkOutPath validates an -out destination before any workload runs:
// a typo'd directory should fail in milliseconds, not after minutes of
// simulation. "" and "-" mean stdout and are always fine.
func checkOutPath(path string) error {
	if path == "" || path == "-" {
		return nil
	}
	dir := filepath.Dir(path)
	info, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("output directory %q does not exist", dir)
	}
	if !info.IsDir() {
		return fmt.Errorf("output parent %q is not a directory", dir)
	}
	return nil
}

// checkSeed validates a -seed value (the flag is signed so that a typo'd
// negative number errors instead of wrapping to a huge seed).
func checkSeed(seed int64) error {
	if seed < 0 {
		return fmt.Errorf("bad seed %d (must be >= 0; 0 = policy default)", seed)
	}
	return nil
}

// openOut returns the output writer for -out ("" or "-" = stdout).
func openOut(path string) (io.Writer, func() error, error) {
	if path == "" || path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// profileFlags registers -cpuprofile/-memprofile on fs and returns
// start/finish hooks bracketing the profiled work: start begins the CPU
// profile, finish stops it, closes its file and writes the heap profile.
// Both are no-ops for unset flags, so a baseline emission can capture
// pprof profiles without changing its output.
func profileFlags(fs *flag.FlagSet) (start func() error, finish func() error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file on exit")
	var cpuFile *os.File
	start = func() error {
		if *cpu == "" {
			return nil
		}
		f, err := os.Create(*cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
		return nil
	}
	finish = func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err := cpuFile.Close()
			cpuFile = nil
			if err != nil {
				return err
			}
		}
		if *mem == "" {
			return nil
		}
		f, err := os.Create(*mem)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize the live heap before snapshotting
		return pprof.WriteHeapProfile(f)
	}
	return start, finish
}

func parseScale(s string) (bench.Scale, error) {
	switch s {
	case "default":
		return bench.ScaleDefault, nil
	case "small":
		return bench.ScaleSmall, nil
	}
	return 0, fmt.Errorf("unknown scale %q (have default, small)", s)
}

func runExperiments(args []string) int {
	fs := flag.NewFlagSet("nabbitbench", flag.ExitOnError)
	experiment := fs.String("experiment", "all",
		fmt.Sprintf("experiment to run: %s, or all", strings.Join(harness.Experiments(), ", ")))
	benches := fs.String("bench", "",
		fmt.Sprintf("comma-separated benchmarks (default all: %s)", strings.Join(suite.Names(), ",")))
	cores := fs.String("cores", "", "comma-separated core counts (default 1,2,4,10,20,40,60,80)")
	scale := fs.String("scale", "default", "benchmark scale: default or small")
	format := fs.String("format", "",
		fmt.Sprintf("output format: %s (default table)", strings.Join(harness.Formats(), ", ")))
	seed := fs.Int64("seed", 0, "scheduling seed override (0 = policy default)")
	out := fs.String("out", "", "write output to this file instead of stdout")
	profStart, profFinish := profileFlags(fs)
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fail(2, "unexpected argument %q (modes: validate)", fs.Arg(0))
	}

	// Validate everything up front, before any experiment runs.
	if !harness.ValidExperiment(*experiment) {
		return fail(2, "unknown experiment %q (have %s, all)",
			*experiment, strings.Join(harness.Experiments(), ", "))
	}
	if err := checkSeed(*seed); err != nil {
		return fail(2, "%v", err)
	}
	if err := checkOutPath(*out); err != nil {
		return fail(2, "%v", err)
	}
	cfg := harness.Config{Format: *format, Seed: uint64(*seed)}
	sc, err := parseScale(*scale)
	if err != nil {
		return fail(2, "%v", err)
	}
	cfg.Scale = sc
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}
	if *cores != "" {
		for _, c := range strings.Split(*cores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil {
				return fail(2, "bad core count %q", c)
			}
			cfg.Cores = append(cfg.Cores, n)
		}
	}
	if err := cfg.Check(); err != nil {
		return fail(2, "%v", err)
	}
	w, closeOut, err := openOut(*out)
	if err != nil {
		return fail(2, "%v", err)
	}
	cfg.Out = w
	if err := profStart(); err != nil {
		closeOut()
		return fail(2, "%v", err)
	}
	if err := harness.Run(*experiment, cfg); err != nil {
		profFinish()
		closeOut()
		return fail(1, "%v", err)
	}
	if err := profFinish(); err != nil {
		closeOut()
		return fail(1, "%v", err)
	}
	if err := closeOut(); err != nil {
		return fail(1, "%v", err)
	}
	return 0
}

func runValidate(args []string) int {
	fs := flag.NewFlagSet("nabbitbench validate", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fail(2, "usage: nabbitbench validate FILE.json")
	}
	doc, err := perf.Load(fs.Arg(0))
	if err != nil {
		return fail(2, "%v", err)
	}
	var tables, rows int
	for _, rep := range doc.Reports {
		tables += len(rep.Tables)
		for _, t := range rep.Tables {
			rows += len(t.Rows)
		}
	}
	fmt.Printf("%s: ok (schema v%d, kind %s, %d reports, %d tables, %d rows)\n",
		fs.Arg(0), doc.SchemaVersion, doc.Kind, len(doc.Reports), tables, rows)
	return 0
}
