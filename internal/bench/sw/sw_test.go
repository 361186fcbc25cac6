package sw

import (
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
	"nabbitc/internal/omp"
	"nabbitc/internal/sim"
)

func TestInfo(t *testing.T) {
	n3 := N3(bench.ScaleSmall)
	if n3.Info().Nodes != 16*16 {
		t.Fatalf("n3 nodes = %d", n3.Info().Nodes)
	}
	n2 := N2(bench.ScaleSmall)
	if n2.Info().Nodes != 12*12 {
		t.Fatalf("n2 nodes = %d", n2.Info().Nodes)
	}
	if n3.Info().Name != "sw" || n2.Info().Name != "swn2" {
		t.Fatal("names wrong")
	}
}

func TestScanWindowFitsBlocks(t *testing.T) {
	// The bounded gap scan must not reach past the predecessor block,
	// or the task graph's dependences would be incomplete.
	for _, s := range []*SW{N3(bench.ScaleSmall), N3(bench.ScaleDefault),
		N2(bench.ScaleSmall), N2(bench.ScaleDefault)} {
		c := s.Config()
		if c.ScanWindow > c.BlockH || c.ScanWindow > c.BlockW {
			t.Fatalf("%s: scan window %d exceeds block %dx%d",
				c.Name, c.ScanWindow, c.BlockH, c.BlockW)
		}
	}
}

func TestModelDAG(t *testing.T) {
	s := N3(bench.ScaleSmall)
	spec, sink := s.Model(8)
	order, err := core.TopoOrder(spec, sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(order); n != s.Info().Nodes {
		t.Fatalf("DAG nodes = %d, want %d", n, s.Info().Nodes)
	}
}

func TestDiagBlocks(t *testing.T) {
	s := New(Config{Name: "sw", BI: 3, BJ: 5, BlockH: 4, BlockW: 4, ScanWindow: 1})
	total := 0
	for d := 0; d < 3+5-1; d++ {
		lo, n := s.diagBlocks(d)
		total += n
		for i := 0; i < n; i++ {
			bi := lo + i
			bj := d - bi
			if bi < 0 || bi >= 3 || bj < 0 || bj >= 5 {
				t.Fatalf("diag %d produced block (%d,%d)", d, bi, bj)
			}
		}
	}
	if total != 15 {
		t.Fatalf("diagonals cover %d blocks, want 15", total)
	}
}

func TestSimRuns(t *testing.T) {
	for _, s := range []*SW{N3(bench.ScaleSmall), N2(bench.ScaleSmall)} {
		spec, sink := s.Model(20)
		res, err := sim.Run(spec, sink, sim.Options{Workers: 20, Policy: core.NabbitCPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		if int(res.TotalNodes()) != s.Info().Nodes {
			t.Fatalf("%s: executed %d", s.Config().Name, res.TotalNodes())
		}
	}
}

func TestSweepsCoverAllBlocks(t *testing.T) {
	s := N3(bench.ScaleSmall)
	sweeps := s.Sweeps(8)
	c := s.Config()
	if len(sweeps) != c.BI+c.BJ-1 {
		t.Fatalf("%d sweeps, want %d", len(sweeps), c.BI+c.BJ-1)
	}
	total := 0
	for _, sw := range sweeps {
		total += sw.N
	}
	if total != c.BI*c.BJ {
		t.Fatalf("sweeps cover %d blocks, want %d", total, c.BI*c.BJ)
	}
}

func TestRealMatchesSerial(t *testing.T) {
	for _, mk := range []func(bench.Scale) *SW{N3, N2} {
		s := mk(bench.ScaleSmall)
		name := s.Config().Name

		serial := mk(bench.ScaleSmall).NewReal()
		serial.RunSerial()
		wantSum, wantScore := serial.Checksum(), serial.MaxScore()

		for _, pol := range []core.Policy{core.NabbitPolicy(), core.NabbitCPolicy()} {
			par := mk(bench.ScaleSmall).NewReal()
			spec, sink := par.Spec(8)
			if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: pol}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if par.Checksum() != wantSum || par.MaxScore() != wantScore {
				t.Fatalf("%s: parallel result differs (colored=%v)", name, pol.Colored)
			}
		}

		for _, sched := range []omp.Schedule{omp.Static, omp.Guided} {
			par := mk(bench.ScaleSmall).NewReal()
			team := omp.NewTeam(8)
			par.RunOpenMP(team, sched)
			team.Close()
			if par.Checksum() != wantSum || par.MaxScore() != wantScore {
				t.Fatalf("%s/%v: OpenMP result differs", name, sched)
			}
		}
	}
}

func TestAlignmentScoresSane(t *testing.T) {
	s := N2(bench.ScaleSmall)
	r := s.NewReal()
	r.RunSerial()
	if r.MaxScore() <= 0 {
		t.Fatal("no positive alignment score on random sequences")
	}
	// Score cannot exceed match * min(n, m).
	c := s.Config()
	maxPossible := int32(2) * int32(min(c.BI*c.BlockH, c.BJ*c.BlockW))
	if r.MaxScore() > maxPossible {
		t.Fatalf("score %d exceeds maximum possible %d", r.MaxScore(), maxPossible)
	}
}

func TestIdenticalSequencesPerfectScore(t *testing.T) {
	s := New(Config{Name: "swn2", BI: 2, BJ: 2, BlockH: 8, BlockW: 8, ScanWindow: 1})
	r := s.NewReal()
	r.b = append([]byte(nil), r.a...) // align a against itself
	r.RunSerial()
	want := int32(2 * 16) // match score × length
	if r.MaxScore() != want {
		t.Fatalf("self-alignment score = %d, want %d", r.MaxScore(), want)
	}
}

func TestN3CostsMoreThanN2PerCell(t *testing.T) {
	n3fp := N3(bench.ScaleSmall).footprint(0)
	n2fp := N2(bench.ScaleSmall).footprint(0)
	n3cells := int64(16 * 16)
	n2cells := int64(32 * 32)
	if n3fp.Compute/n3cells <= n2fp.Compute/n2cells {
		t.Fatal("n3 variant not more expensive per cell")
	}
}
