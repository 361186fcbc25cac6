package core

import (
	"fmt"
	"testing"
)

// wavefrontSpec is an n×n two-predecessor wavefront — task (i,j) needs
// (i-1,j) and (i,j-1) — coloured by row band over the workers, with the
// predecessor lists precomputed so the spec allocates nothing per call.
// It is the per-task path's reference graph: every interior node pays
// exactly one creation, two edges, one compute and two notifications.
type wavefrontSpec struct {
	n, workers int
	preds      [][]Key
	val        []uint64
	salt       uint64 // folded into every value; tests change it between runs
}

func newWavefrontSpec(n, workers int) *wavefrontSpec {
	s := &wavefrontSpec{n: n, workers: workers, preds: make([][]Key, n*n), val: make([]uint64, n*n)}
	flat := make([]Key, 0, 2*n*n)
	for k := range s.preds {
		from := len(flat)
		if k/n > 0 {
			flat = append(flat, Key(k-n))
		}
		if k%n > 0 {
			flat = append(flat, Key(k-1))
		}
		s.preds[k] = flat[from:len(flat):len(flat)]
	}
	return s
}

func (s *wavefrontSpec) Predecessors(k Key) []Key { return s.preds[k] }
func (s *wavefrontSpec) Color(k Key) int          { return int(k) / s.n * s.workers / s.n }
func (s *wavefrontSpec) KeyBound() int            { return s.n * s.n }
func (s *wavefrontSpec) sink() Key                { return Key(s.n*s.n - 1) }

// Compute folds the predecessors' values, so the sink's value depends on
// every task having run in dependence order. A spec shared by concurrent
// graphs drops val and computes nothing.
func (s *wavefrontSpec) Compute(k Key) {
	if s.val == nil {
		return
	}
	x := uint64(k) + 1 + s.salt
	for _, p := range s.preds[k] {
		x += s.val[p]
	}
	s.val[k] = x
}

// BenchmarkExecutePerTask measures the scheduler's per-task path on a
// persistent engine: one Execute of a 128×128 wavefront per iteration, so
// construction is amortized away. The 1w/2w rows time what a repeat Execute
// costs — a replay: the re-arm pass, then compute + notify + push/pop per
// task. The discover rows run the same wavefront through freshSliceSpec,
// which keeps every run on the discovery path (node table + grouping +
// push/pop + notify per task): still every first run, every Submit, and
// every spec without stable slices. CI's bench-smoke job gates the
// allocs/op of all four.
func BenchmarkExecutePerTask(b *testing.B) {
	const n = 128
	for _, discover := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%dw", workers)
			if discover {
				name = "discover-" + name
			}
			b.Run(name, func(b *testing.B) {
				wf := newWavefrontSpec(n, workers)
				var spec Spec = wf
				if discover {
					spec = newFreshSliceSpec(wf)
				}
				e, err := NewEngine(spec, Options{Workers: workers, Policy: NabbitCPolicy()})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				for r := 0; r < 2; r++ {
					if _, err := e.Execute(wf.sink()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := e.Execute(wf.sink())
					if err != nil {
						b.Fatal(err)
					}
					if st.NodesCreated != n*n || st.Replayed == discover {
						b.Fatalf("NodesCreated = %d, Replayed = %v, want %d, %v", st.NodesCreated, st.Replayed, n*n, !discover)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*n), "ns/task")
			})
		}
	}
}
