package nas

import (
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
	"nabbitc/internal/sim"
)

func TestCGInfo(t *testing.T) {
	cg := CGBench(bench.ScaleSmall)
	want := cg.Config().Iterations * (5*cg.Config().Blocks - 2)
	if cg.Info().Nodes != want {
		t.Fatalf("cg nodes = %d, want %d", cg.Info().Nodes, want)
	}
	// Default scale should land near the paper's 300 nodes.
	def := CGBench(bench.ScaleDefault)
	if n := def.Info().Nodes; n < 250 || n > 350 {
		t.Fatalf("default cg nodes = %d, want about 300", n)
	}
}

func TestMGInfo(t *testing.T) {
	mg := MGBench(bench.ScaleDefault)
	// Paper: 16384 nodes; the block V-cycle gives ~14k.
	if n := mg.Info().Nodes; n < 10000 || n > 20000 {
		t.Fatalf("default mg nodes = %d, want near 16384", n)
	}
}

func TestCGModelDAG(t *testing.T) {
	cg := CGBench(bench.ScaleSmall)
	spec, sink := cg.Model(8)
	order, err := core.TopoOrder(spec, sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(order); n != cg.Info().Nodes+1 {
		t.Fatalf("cg DAG nodes = %d, want %d", n, cg.Info().Nodes+1)
	}
}

func TestMGModelDAG(t *testing.T) {
	mg := MGBench(bench.ScaleSmall)
	spec, sink := mg.Model(8)
	order, err := core.TopoOrder(spec, sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(order); n != mg.Info().Nodes+1 {
		t.Fatalf("mg DAG nodes = %d, want %d", n, mg.Info().Nodes+1)
	}
}

func TestColorsInRange(t *testing.T) {
	for _, b := range []bench.Benchmark{CGBench(bench.ScaleSmall), MGBench(bench.ScaleSmall)} {
		for _, p := range []int{1, 8, 80} {
			spec, sink := b.Model(p)
			order, err := core.TopoOrder(spec, sink, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range order {
				if c := spec.Color(k); c < 0 || c >= p {
					t.Fatalf("%s p=%d: color %d out of range", b.Info().Name, p, c)
				}
			}
		}
	}
}

func TestSimRuns(t *testing.T) {
	for _, b := range []bench.Benchmark{CGBench(bench.ScaleSmall), MGBench(bench.ScaleSmall)} {
		spec, sink := b.Model(20)
		res, err := sim.Run(spec, sink, sim.Options{Workers: 20, Policy: core.NabbitCPolicy()})
		if err != nil {
			t.Fatalf("%s: %v", b.Info().Name, err)
		}
		if int(res.TotalNodes()) != b.Info().Nodes+1 {
			t.Fatalf("%s: executed %d, want %d", b.Info().Name, res.TotalNodes(), b.Info().Nodes+1)
		}
	}
}

func TestMGLevels(t *testing.T) {
	mg := NewMG(MGConfig{FineBlocks: 32, CellsPerBlock: 64, Cycles: 1, SolveSweeps: 8})
	if mg.Levels() != 6 { // 32,16,8,4,2,1
		t.Fatalf("levels = %d, want 6", mg.Levels())
	}
	if mg.blocksAt(5) != 1 {
		t.Fatalf("coarsest blocks = %d", mg.blocksAt(5))
	}
}

func TestCGPowerOfTwoRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two blocks accepted")
		}
	}()
	NewCG(CGConfig{Blocks: 12, CellsPerBlock: 8, Iterations: 1})
}

func TestSweepsNonEmpty(t *testing.T) {
	for _, b := range []bench.Benchmark{CGBench(bench.ScaleSmall), MGBench(bench.ScaleSmall)} {
		sweeps := b.Sweeps(8)
		if len(sweeps) == 0 {
			t.Fatalf("%s: no sweeps", b.Info().Name)
		}
		total := 0
		for _, sw := range sweeps {
			total += sw.N
		}
		if total == 0 {
			t.Fatalf("%s: empty sweeps", b.Info().Name)
		}
	}
}
