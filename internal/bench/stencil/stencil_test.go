package stencil

import (
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/core"
	"nabbitc/internal/omp"
	"nabbitc/internal/sim"
)

func benchmarks() []*Stencil {
	return []*Stencil{
		Heat(bench.ScaleSmall), FDTD(bench.ScaleSmall), Life(bench.ScaleSmall),
	}
}

func TestInfo(t *testing.T) {
	for _, st := range benchmarks() {
		info := st.Info()
		if info.Nodes != st.Config().Blocks*st.Config().Iterations {
			t.Fatalf("%s: nodes = %d", info.Name, info.Nodes)
		}
		if info.Name == "" || info.Description == "" {
			t.Fatalf("incomplete info: %+v", info)
		}
	}
}

func TestModelDAG(t *testing.T) {
	for _, st := range benchmarks() {
		spec, sink := st.Model(8)
		order, err := core.TopoOrder(spec, sink, 0)
		if err != nil {
			t.Fatalf("%s: %v", st.Config().Name, err)
		}
		if n := len(order); n != st.Info().Nodes+1 { // +1 for the sink
			t.Fatalf("%s: DAG has %d nodes, want %d", st.Config().Name, n, st.Info().Nodes+1)
		}
	}
}

func TestModelColorsInRange(t *testing.T) {
	st := Heat(bench.ScaleSmall)
	for _, p := range []int{1, 7, 80} {
		spec, sink := st.Model(p)
		order, err := core.TopoOrder(spec, sink, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range order {
			c := spec.Color(k)
			if c < 0 || c >= p {
				t.Fatalf("p=%d: color %d out of range for task %d", p, c, k)
			}
		}
	}
}

func TestModelColorsBalanced(t *testing.T) {
	// Every worker must own roughly Blocks/p blocks per iteration.
	st := Heat(bench.ScaleSmall)
	p := 16
	spec, _ := st.Model(p)
	counts := make([]int, p)
	for b := 0; b < st.Config().Blocks; b++ {
		counts[spec.Color(core.Key(b))]++
	}
	want := st.Config().Blocks / p
	for c, got := range counts {
		if got < want-1 || got > want+1 {
			t.Fatalf("color %d owns %d blocks, want about %d", c, got, want)
		}
	}
}

func TestSimRuns(t *testing.T) {
	for _, st := range benchmarks() {
		spec, sink := st.Model(20)
		res, err := sim.Run(spec, sink, sim.Options{Workers: 20, Policy: core.NabbitCPolicy()})
		if err != nil {
			t.Fatalf("%s: %v", st.Config().Name, err)
		}
		if int(res.TotalNodes()) != st.Info().Nodes+1 {
			t.Fatalf("%s: executed %d", st.Config().Name, res.TotalNodes())
		}
	}
}

func TestSweepsShape(t *testing.T) {
	for _, st := range benchmarks() {
		sweeps := st.Sweeps(8)
		if len(sweeps) != st.Config().Iterations {
			t.Fatalf("%s: %d sweeps", st.Config().Name, len(sweeps))
		}
		for _, sw := range sweeps {
			if sw.N != st.Config().Blocks {
				t.Fatalf("%s: sweep N = %d", st.Config().Name, sw.N)
			}
			// Interior iteration has two neighbors, edges have one.
			if got := len(sw.IterFn(1).NeighborHomes); got != 2 {
				t.Fatalf("%s: interior neighbors = %d", st.Config().Name, got)
			}
			if got := len(sw.IterFn(0).NeighborHomes); got != 1 {
				t.Fatalf("%s: edge neighbors = %d", st.Config().Name, got)
			}
		}
	}
}

// Serial vs. task-graph (NabbitC) execution must produce identical grids.
func TestRealTaskGraphMatchesSerial(t *testing.T) {
	for _, mk := range []func(bench.Scale) *Stencil{Heat, FDTD, Life} {
		st := mk(bench.ScaleSmall)
		name := st.Config().Name

		serial := st.NewReal()
		serial.RunSerial()
		want := serial.Checksum()

		parallel := mk(bench.ScaleSmall).NewReal()
		spec, sink := parallel.Spec(8)
		if _, err := core.Run(spec, sink, core.Options{Workers: 8, Policy: core.NabbitCPolicy()}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := parallel.Checksum(); got != want {
			t.Fatalf("%s: task-graph checksum %v != serial %v", name, got, want)
		}
	}
}

// Serial vs. Nabbit (random stealing) as well — execution order differs.
func TestRealNabbitMatchesSerial(t *testing.T) {
	st := Heat(bench.ScaleSmall)
	serial := st.NewReal()
	serial.RunSerial()
	want := serial.Checksum()

	parallel := Heat(bench.ScaleSmall).NewReal()
	spec, sink := parallel.Spec(6)
	if _, err := core.Run(spec, sink, core.Options{Workers: 6, Policy: core.NabbitPolicy()}); err != nil {
		t.Fatal(err)
	}
	if got := parallel.Checksum(); got != want {
		t.Fatalf("Nabbit checksum %v != serial %v", got, want)
	}
}

// OpenMP formulations must also match, under both schedules.
func TestRealOpenMPMatchesSerial(t *testing.T) {
	for _, sched := range []omp.Schedule{omp.Static, omp.Guided} {
		for _, mk := range []func(bench.Scale) *Stencil{Heat, FDTD, Life} {
			st := mk(bench.ScaleSmall)
			serial := st.NewReal()
			serial.RunSerial()
			want := serial.Checksum()

			parallel := mk(bench.ScaleSmall).NewReal()
			team := omp.NewTeam(8)
			parallel.RunOpenMP(team, sched)
			team.Close()
			if got := parallel.Checksum(); got != want {
				t.Fatalf("%s/%v: checksum %v != serial %v", st.Config().Name, sched, got, want)
			}
		}
	}
}

func TestHeatConservesEnergyApproximately(t *testing.T) {
	// Pure diffusion with clamped boundaries keeps values within the
	// initial range.
	st := Heat(bench.ScaleSmall)
	r := st.NewReal()
	k := r.kernel.(*heatKernel)
	maxInit := 0.0
	for _, v := range k.bufs[0] {
		if v > maxInit {
			maxInit = v
		}
	}
	r.RunSerial()
	final := k.bufs[st.Config().Iterations%2]
	for i, v := range final {
		if v < -1e-9 || v > maxInit+1e-9 {
			t.Fatalf("cell %d = %v outside [0, %v]", i, v, maxInit)
		}
	}
}

func TestLifeCellsStayBinary(t *testing.T) {
	st := Life(bench.ScaleSmall)
	r := st.NewReal()
	r.RunSerial()
	k := r.kernel.(*lifeKernel)
	for i, v := range k.bufs[st.Config().Iterations%2] {
		if v > 1 {
			t.Fatalf("cell %d = %d", i, v)
		}
	}
}
