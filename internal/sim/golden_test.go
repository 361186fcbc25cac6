package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/bench/suite"
	"nabbitc/internal/core"
	"nabbitc/internal/xrand"
)

// update rewrites testdata/schedules.golden from the engine under test.
// Regenerating is legitimate only when a change is MEANT to alter what the
// simulated machine does — a new cost-model charge, a changed steal
// protocol, a benchmark model resized — and the PR says so. A change to
// how the simulator is implemented (event queue, deque storage, node
// tables, allocation) must pass against the file as it stands: the file
// was generated from the engine before its event loop was rebuilt, and
// that is the only thing that lets it catch a reordering.
var update = flag.Bool("update", false, "rewrite testdata/schedules.golden")

const goldenPath = "testdata/schedules.golden"

// goldenLines runs the six Table I models the benchmark's sim-table1
// workload uses, at ScaleSmall, under the three policies on 1, 20 and 80
// cores, and renders one line per run: the number of completions, a hash
// of the whole OnComplete (t, wid, key) stream and a hash of the sorted
// Metrics(). Three more lines hash the schedules of random DAGs.
func goldenLines(t *testing.T) []byte {
	t.Helper()
	policies := []struct {
		name string
		pol  core.Policy
	}{
		{"nabbit", core.NabbitPolicy()},
		{"nabbitc", core.NabbitCPolicy()},
		{"nabbitc-hier", core.NabbitCHierPolicy()},
	}
	var out bytes.Buffer
	for _, app := range []string{"heat", "sw", "mg", "cg", "page-uk-2002", "life"} {
		b, err := suite.Build(app, bench.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		for _, cores := range []int{1, 20, 80} {
			spec, sink := b.Model(cores)
			for _, p := range policies {
				sched := sha256.New()
				n := 0
				record := hashCompletions(sched)
				res, err := Run(spec, sink, Options{
					Workers: cores,
					Policy:  p.pol,
					OnComplete: func(vt int64, wid int, k core.Key) {
						record(vt, wid, k)
						n++
					},
				})
				if err != nil {
					t.Fatalf("%s/%s/p%d: %v", app, p.name, cores, err)
				}
				metrics := sha256.New()
				m := res.Metrics()
				for _, name := range slices.Sorted(maps.Keys(m)) {
					fmt.Fprintf(metrics, "%s=%v\n", name, m[name])
				}
				fmt.Fprintf(&out, "%s/%s/p%d completions=%d makespan=%d sched=%x metrics=%x\n",
					app, p.name, cores, n, res.Makespan, sched.Sum(nil)[:12], metrics.Sum(nil)[:12])
			}
		}
	}
	// The models never name a predecessor twice, color a task outside the
	// machine, or leave the dense node table, and their sockets hold ten
	// cores; the quick properties' random DAGs do all of that, so each
	// policy's schedules over a fixed draw of them are pinned too.
	for pi, name := range []string{"nabbitc", "nabbit", "nabbitc-hier"} {
		sched := sha256.New()
		r := xrand.New(uint64(pi) + 1)
		const dags = 200
		for i := 0; i < dags; i++ {
			seed, workers := r.Uint64(), r.Intn(20)+1
			spec, sink := randomDAG(seed, r.Intn(5)+2, r.Intn(10)+1, workers)
			if i%2 == 0 {
				spec, sink = randomDenseDAG(seed, r.Intn(5)+2, r.Intn(10)+1, workers)
			}
			opts := quickPolicies(workers, seed)[pi]
			opts.OnComplete = hashCompletions(sched)
			res, err := Run(spec, sink, opts)
			if err != nil {
				t.Fatalf("random-dags/%s #%d: %v", name, i, err)
			}
			fmt.Fprintln(sched, res.Makespan, flatWorkers(res.Workers))
		}
		fmt.Fprintf(&out, "random-dags/%s dags=%d sched=%x\n", name, dags, sched.Sum(nil)[:12])
	}
	return out.Bytes()
}

// flatWorkers renders per-worker stats as %v did when WorkerStats declared
// every counter itself, before the shared ones moved into the embedded
// core.Counters: the random-DAG hashes in the golden file were taken over
// that rendering.
func flatWorkers(ws Workers) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, w := range ws {
		if i > 0 {
			b.WriteByte(' ')
		}
		c := fmt.Sprint(w.Counters)
		fmt.Fprintf(&b, "{%s %d %d}", c[1:len(c)-1], w.TimeToFirstWork, w.BusyTime)
	}
	b.WriteByte(']')
	return b.String()
}

// hashCompletions returns an OnComplete hook that feeds each (t, wid, key)
// to h.
func hashCompletions(h hash.Hash) func(vt int64, wid int, k core.Key) {
	var rec [24]byte
	return func(vt int64, wid int, k core.Key) {
		binary.LittleEndian.PutUint64(rec[0:], uint64(vt))
		binary.LittleEndian.PutUint64(rec[8:], uint64(wid))
		binary.LittleEndian.PutUint64(rec[16:], uint64(k))
		h.Write(rec[:])
	}
}

// Every schedule the simulator produces for the Table I models is pinned
// against a checked-in file, so a reordering introduced by a change to the
// simulator itself is caught — the other identity tests compare two runs
// of the same binary and cannot see one.
func TestGoldenSchedules(t *testing.T) {
	t.Parallel()
	got := goldenLines(t)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("run %d differs:\n got %s\nwant %s", i, gl[i], wl[i])
		}
	}
	t.Fatalf("schedules differ from %s (%d lines, want %d); see the -update flag's comment before regenerating",
		goldenPath, len(gl), len(wl))
}
