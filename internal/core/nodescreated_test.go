package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// faultySpec wraps a bounded spec with one switchable panic, for driving a
// run to failure after it has already created nodes.
type faultySpec struct {
	BoundedSpec
	at   Key
	fail atomic.Bool
}

func (f *faultySpec) Compute(k Key) {
	if k == f.at && f.fail.Load() {
		panic("injected")
	}
	f.BoundedSpec.Compute(k)
}

// TestNodesCreatedExactUnderStriping pins Stats.NodesCreated now that the
// table counts creations in per-worker stripes: on a wavefront and on a
// cone forest, under both slot rules (tableRows) and 1–8 workers, the
// count equals the graph's key count exactly — for Execute, for each of
// 64 concurrently submitted graphs (every graph sums
// its own table's stripes while the workers keep writing other tables'),
// and for the first healthy run after a failed run handed its half-filled
// table back to the pool (the stripes must be cleared at checkout, like
// the epoch). CI runs it under -race, where a stripe shared by two
// workers or read before its writer is ordered would also be reported.
func TestNodesCreatedExactUnderStriping(t *testing.T) {
	const side, cones, width = 16, 64, 16
	type graph struct {
		name  string
		spec  func(workers int) BoundedSpec
		sink  func(i int) Key // the i-th submittable graph
		keys  int
		fault Key
	}
	graphs := []graph{
		{
			name: "wavefront",
			spec: func(workers int) BoundedSpec {
				s := newWavefrontSpec(side, workers)
				s.val = nil // shared by concurrent graphs
				return s
			},
			sink:  func(int) Key { return side*side - 1 },
			keys:  side * side,
			fault: side * side / 2,
		},
		{
			name:  "cones",
			spec:  func(workers int) BoundedSpec { return coneSpec(cones, width, workers, nil) },
			sink:  func(i int) Key { return coneSink(i%cones, width) },
			keys:  width + 1,
			fault: 3, // a leaf of cone 0
		},
	}
	for _, g := range graphs {
		for _, row := range tableRows {
			for _, workers := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%s/%s/mutex/%dw", g.name, row.name, workers)
				t.Run(name, func(t *testing.T) {
					var inner BoundedSpec = g.spec(workers)
					if row.hide {
						inner = unboundedSpec{inner}
					}
					spec := &faultySpec{BoundedSpec: inner, at: g.fault}
					e, err := NewEngine(spec, Options{
						Workers: workers, Policy: NabbitCPolicy(), MaxInflight: cones,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					check := func(what string, st *Stats, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if st.NodesCreated != g.keys {
							t.Fatalf("%s: NodesCreated = %d, want %d", what, st.NodesCreated, g.keys)
						}
					}

					st, err := e.Execute(g.sink(0))
					check("Execute", st, err)

					var wg sync.WaitGroup
					for i := 0; i < cones; i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							tk, err := e.Submit(g.sink(i))
							if err != nil {
								t.Errorf("Submit %d: %v", i, err)
								return
							}
							st, err := tk.Wait()
							if err != nil || st.NodesCreated != g.keys {
								t.Errorf("Submit %d: NodesCreated = %v, err = %v, want %d", i, st, err, g.keys)
							}
						}(i)
					}
					wg.Wait()

					// Fail a run mid-graph, then run healthy: Execute's
					// quiescence reclaims the failed run's table, so the
					// healthy run checks out a table that has already
					// counted creations.
					spec.fail.Store(true)
					if _, err := e.Execute(g.sink(0)); err == nil {
						t.Fatal("run with an injected panic did not fail")
					}
					spec.fail.Store(false)
					st, err = e.Execute(g.sink(0))
					check("Execute after a failed run", st, err)
				})
			}
		}
	}
}
