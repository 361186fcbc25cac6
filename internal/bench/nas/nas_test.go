package nas

import (
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
	"nabbitc/internal/omp"
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

func TestTreeLevels(t *testing.T) {
	levels := treeLevels(8)
	// Heap internal nodes of an 8-leaf tree: [4..8), [2..4), [1..2).
	want := [][]int{{4, 5, 6, 7}, {2, 3}, {1}}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v", levels)
	}
	for i := range want {
		if len(levels[i]) != len(want[i]) {
			t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
		}
		for j := range want[i] {
			if levels[i][j] != want[i][j] {
				t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
			}
		}
	}
}

// CG must actually converge: r·r decreases across iterations.
func TestCGConverges(t *testing.T) {
	cg := NewCG(CGConfig{Blocks: 16, CellsPerBlock: 64, Iterations: 8})
	rc := cg.NewReal()
	rc.RunSerial()
	rrs := rc.RRHistory()
	if rrs[len(rrs)-1] >= rrs[0]/100 {
		t.Fatalf("cg barely converged: rr %v -> %v", rrs[0], rrs[len(rrs)-1])
	}
	for i := 1; i < len(rrs); i++ {
		if rrs[i] < 0 {
			t.Fatalf("negative rr at %d", i)
		}
	}
}

// Parallel CG must reproduce the serial result exactly.
func TestCGRealMatchesSerial(t *testing.T) {
	mk := func() *RealCG {
		return NewCG(CGConfig{Blocks: 16, CellsPerBlock: 64, Iterations: 5}).NewReal()
	}
	serial := mk()
	serial.RunSerial()
	want := serial.Checksum()

	for _, pol := range []core.Policy{core.NabbitPolicy(), core.NabbitCPolicy()} {
		par := mk()
		spec, sink := par.Spec(8)
		if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: pol}); err != nil {
			t.Fatal(err)
		}
		if got := par.Checksum(); got != want {
			t.Fatalf("cg parallel checksum %v != serial %v (colored=%v)", got, want, pol.Colored)
		}
	}
	for _, sched := range []omp.Schedule{omp.Static, omp.Guided} {
		par := mk()
		team := omp.NewTeam(8)
		par.RunOpenMP(team, sched)
		team.Close()
		if got := par.Checksum(); got != want {
			t.Fatalf("cg OpenMP/%v checksum %v != serial %v", sched, got, want)
		}
	}
}

// MG must reduce the residual.
func TestMGConverges(t *testing.T) {
	mg := NewMG(MGConfig{FineBlocks: 32, CellsPerBlock: 64, Cycles: 3, SolveSweeps: 64})
	r := mg.NewReal()
	r.RunSerial()
	initial, final := r.InitialResidualNorm(), r.FinalResidualNorm()
	if final >= initial*0.8 {
		t.Fatalf("mg residual barely moved: %v -> %v", initial, final)
	}
}

// Parallel MG must reproduce the serial result exactly.
func TestMGRealMatchesSerial(t *testing.T) {
	mk := func() *RealMG { return MGBench(bench.ScaleSmall).NewReal() }
	serial := mk()
	serial.RunSerial()
	want := serial.Checksum()

	for _, pol := range []core.Policy{core.NabbitPolicy(), core.NabbitCPolicy()} {
		par := mk()
		spec, sink := par.Spec(8)
		if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: pol}); err != nil {
			t.Fatal(err)
		}
		if got := par.Checksum(); got != want {
			t.Fatalf("mg parallel checksum %v != serial %v (colored=%v)", got, want, pol.Colored)
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

func TestThomasSolve(t *testing.T) {
	// Solve tridiag(-1, 4, -1) x = d and verify by multiplication.
	d := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	x := make([]float64, len(d))
	thomasSolve(x, d)
	for i := range d {
		ax := 4 * x[i]
		if i > 0 {
			ax -= x[i-1]
		}
		if i < len(x)-1 {
			ax -= x[i+1]
		}
		if diff := ax - d[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("row %d: Ax = %v, want %v", i, ax, d[i])
		}
	}
}
