package sim_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/bench/suite"
	"nabbitc/internal/core"
	"nabbitc/internal/sim"
)

// TestEngineAndSimulatorAgree runs every Table I model on one worker
// through both machines: the real engine (core.Run) and the simulator
// (sim.Run). With one worker nothing is stolen, so the schedule is decided
// by the morphing-continuation interpreter alone — the colour grouping, the
// spawn_colors and spawn_nodes splits, the lone-successor shortcut and the
// notify order — and the two must complete the same nodes in the same order
// and tally them alike. Each model is built for 1, 4 and 20 workers, so at
// one worker most colours and homes lie outside the machine, and is run
// with its own colouring and with every colour rotated by one, which moves
// colours off the homes the locality tally judges by. A key outside the
// spec's declared bound is one more row, which both machines must reject.
func TestEngineAndSimulatorAgree(t *testing.T) {
	policies := []struct {
		name string
		pol  core.Policy
	}{
		{"nabbit", core.NabbitPolicy()},
		{"nabbitc", core.NabbitCPolicy()},
		{"nabbitc-hier", core.NabbitCHierPolicy()},
	}
	for _, b := range suite.BuildAll(bench.ScaleSmall) {
		for _, p := range []int{1, 4, 20} {
			spec, sink := b.Model(p)
			rotated := core.Recolored{Spec: spec, ColorFn: func(k core.Key) int {
				if c := spec.Color(k); c >= 0 && c < p {
					return (c + 1) % p
				}
				return spec.Color(k)
			}}
			for _, col := range []struct {
				name string
				spec core.CostSpec
			}{{"spec", spec}, {"rotated", rotated}} {
				for _, pol := range policies {
					name := fmt.Sprintf("%s/p%d/%s/%s", b.Info().Name, p, col.name, pol.name)
					agree(t, name, col.spec, sink, pol.pol)
				}
			}
		}
	}

	// A predecessor outside the spec's declared key bound is a spec error,
	// which both machines report as a *core.ComputeError on that key.
	const bad = 99
	badSpec := core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			if k == 0 {
				return []core.Key{1, bad, 2}
			}
			return nil
		},
		BoundFn: func() int { return 8 },
	}
	_, engErr := core.Run(badSpec, 0, core.Options{Workers: 1})
	_, simErr := sim.Run(badSpec, 0, sim.Options{Workers: 1})
	for _, c := range []struct {
		machine string
		err     error
	}{{"engine", engErr}, {"simulator", simErr}} {
		var ce *core.ComputeError
		if !errors.As(c.err, &ce) || ce.Key != bad {
			t.Errorf("out-of-bound key: %s: err = %v, want a *core.ComputeError on key %d", c.machine, c.err, bad)
		}
	}
}

// agree runs spec on one worker under pol on both machines and reports
// where their completion orders or counters differ.
func agree(t *testing.T, name string, spec core.CostSpec, sink core.Key, pol core.Policy) {
	t.Helper()
	var engOrder, simOrder []core.Key
	st, err := core.Run(spec, sink, core.Options{
		Workers:    1,
		Policy:     pol,
		OnComplete: func(_ int, k core.Key) { engOrder = append(engOrder, k) },
	})
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	res, err := sim.Run(spec, sink, sim.Options{
		Workers:    1,
		Policy:     pol,
		OnComplete: func(_ int64, _ int, k core.Key) { simOrder = append(simOrder, k) },
	})
	if err != nil {
		t.Fatalf("%s: simulator: %v", name, err)
	}
	if i := firstDiff(engOrder, simOrder); i >= 0 {
		t.Errorf("%s: completion orders part at #%d of %d/%d: engine %v, simulator %v",
			name, i, len(engOrder), len(simOrder), at(engOrder, i), at(simOrder, i))
	}
	eng, sm := st.Workers[0].Counters, res.Workers[0].Counters
	if eng.NodesExecuted != sm.NodesExecuted || eng.OwnColorNodes != sm.OwnColorNodes || eng.Accesses != sm.Accesses {
		t.Errorf("%s: counters differ: engine nodes=%d own=%d accesses=%+v, simulator nodes=%d own=%d accesses=%+v",
			name, eng.NodesExecuted, eng.OwnColorNodes, eng.Accesses, sm.NodesExecuted, sm.OwnColorNodes, sm.Accesses)
	}
}

// firstDiff returns the first index at which a and b differ, -1 if equal.
func firstDiff(a, b []core.Key) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// at returns ks[i] for a failure message, or "end" past the last key.
func at(ks []core.Key, i int) any {
	if i < len(ks) {
		return ks[i]
	}
	return "end"
}
