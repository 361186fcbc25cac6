package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchBound keeps the tables small enough to rebuild cheaply while large
// enough that per-op cost dominates.
const benchBound = 1 << 15

func benchSpec() FuncSpec {
	return FuncSpec{
		ColorFn: func(k Key) int { return int(k) % 8 },
		BoundFn: func() int { return benchBound },
	}
}

// getOrCreateTables are the two slot rules the node-table benchmarks
// measure: the spec's keys indexed, and the same spec with every key its
// own slot (an unbounded spec's; benchBound keys fill 512 pages, so the
// tree is two levels deep).
func getOrCreateTables() []struct {
	name string
	mk   func() *nodeArena
} {
	spec := benchSpec()
	return []struct {
		name string
		mk   func() *nodeArena
	}{
		{"dense", func() *nodeArena { return testArena(spec, 8, benchBound) }},
		{"unbounded", func() *nodeArena { return testRawArena(spec, 8) }},
	}
}

// BenchmarkGetOrCreate measures the create path under both slot rules.
// Both must report exactly 0 allocs/op (CI's bench-smoke job hard-gates
// them): creation is one CAS plus field stores into pooled pages.
func BenchmarkGetOrCreate(b *testing.B) {
	for _, impl := range getOrCreateTables() {
		b.Run(impl.name, func(b *testing.B) {
			nt := impl.mk()
			k := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k == benchBound {
					// Table exhausted: rebuild off the clock so every
					// timed op is a create.
					b.StopTimer()
					nt = impl.mk()
					k = 0
					b.StartTimer()
				}
				nt.getOrCreate(Key(k), 0, nil)
				k++
			}
		})
	}
}

// BenchmarkGetOrCreateLookup measures the (far more common) lookup path:
// every edge after a node's first naming resolves to an existing node.
func BenchmarkGetOrCreateLookup(b *testing.B) {
	for _, impl := range getOrCreateTables() {
		b.Run(impl.name, func(b *testing.B) {
			nt := impl.mk()
			for k := 0; k < benchBound; k++ {
				nt.getOrCreate(Key(k), 0, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nt.getOrCreate(Key(i&(benchBound-1)), 0, nil)
			}
		})
	}
}

// BenchmarkGetOrCreateScattered measures what a sparse key space costs the
// raw-key table: every created key on a page of its own, so every create
// installs a 4 KB page, and the tree grows whatever interior levels the
// keys' spread asks for. It reports heap bytes per created node — pages,
// slabs and directory levels together — to set against the 138 B a node
// cost the sharded map the table replaced. stride-64 takes one key of
// each 64-key block in a row; stride-2^40 spreads them 2^40 apart over
// negative and positive keys, which gives each key interior levels of its
// own below the top two.
func BenchmarkGetOrCreateScattered(b *testing.B) {
	const nodes = 4096
	for _, sc := range []struct {
		name string
		key  func(j int) Key
	}{
		{"stride-64", func(j int) Key { return Key(j) * pageNodes }},
		{"stride-2^40", func(j int) Key { return Key(j-nodes/2)<<40 + Key(j) }},
	} {
		b.Run(sc.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := testRawArena(benchSpec(), 8)
				for j := 0; j < nodes; j++ {
					a.getOrCreate(sc.key(j), 0, nil)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*nodes), "B/node")
		})
	}
}

// BenchmarkNotify measures the lifecycle word's successor handshake — the
// uncontended addSuccessor / retire / decJoin cycle that replaced
// the per-node mutex — at small fan-outs. The successor backing array is
// reused, so steady-state notification allocates nothing.
func BenchmarkNotify(b *testing.B) {
	for _, fanout := range []int{1, 8} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			pred := &Node{}
			succs := make([]*Node, fanout)
			for i := range succs {
				succs[i] = &Node{}
				succs[i].state.Store(nodeReady)
			}
			backing := make([]*Node, 0, fanout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred.state.Store(nodeReady)
				pred.setSuccs(backing)
				for _, s := range succs {
					atomic.StoreInt32(&s.join, 1)
					if !pred.addSuccessor(s) {
						b.Fatal("addSuccessor refused before retire")
					}
				}
				drained := pred.retire()
				for _, s := range drained {
					s.decJoin()
				}
				if len(drained) != fanout {
					b.Fatalf("drained %d, want %d", len(drained), fanout)
				}
			}
		})
	}
}
