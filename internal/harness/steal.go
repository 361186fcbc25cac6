package harness

import (
	"fmt"

	"nabbitc/internal/colorset"
	"nabbitc/internal/deque"
	"nabbitc/internal/perf"
)

// The steal experiment pins the deque substrates' steal-path arithmetic
// into the structured report pipeline: how many victim visits and how
// many claim CAS attempts it takes to drain a fixed workload, per
// substrate, at 1/4/8-worker shapes. The numbers come from a scripted
// single-threaded drain (thieves visit victims round-robin, one steal op
// per turn), so the emitted document is exactly reproducible and can
// live in the byte-compared sim-kind baseline. Timed steals and a drain
// with a real concurrent thief, where throughput is meaningful but
// nondeterministic, are the benchmark module's deque probes
// (benchmarks/, deque.steal_ns.* and deque.drain_items_per_s.*).
//
// The point being pinned: on the block substrate a batched steal claims a
// whole sealed block with a single CAS, so cas_per_item approaches
// 1/blockSize (0.031 at block size 32), where the Chase–Lev layout is
// structurally one CAS per item; single-item steals cost one CAS per item
// on both. The mutex substrate takes no CAS at all (lock per visit).

// stealFill is the per-deque entry count drained by each scenario —
// enough blocks (64 per deque) that block-boundary effects vanish from
// the per-item averages.
const stealFill = 2048

// stealWorkerShapes are the worker counts the drain is scripted at (the
// issue's 1/4/8-worker sweep: one victim deque per worker).
var stealWorkerShapes = []int{1, 4, 8}

// casCounter is implemented by substrates that count thief-side claim CAS
// attempts (Chase–Lev and block; the mutex deque never CASes).
type casCounter interface {
	StealCASes() int64
}

// stealSubstrates enumerates the deque implementations under test, in
// display order.
func stealSubstrates() []struct {
	name string
	mk   func(hint int) deque.Queue[int]
} {
	return []struct {
		name string
		mk   func(hint int) deque.Queue[int]
	}{
		{"mutex", func(hint int) deque.Queue[int] { return deque.NewMutex[int](hint) }},
		{"chaselev", func(hint int) deque.Queue[int] { return deque.NewChaseLev[int](hint) }},
		{"block", func(hint int) deque.Queue[int] { return deque.NewBlock[int](hint) }},
	}
}

// stealDrainCounted fills `workers` deques with stealFill entries each
// and drains them with scripted round-robin steal visits — batched
// (Steal, uncapped) or single-item (StealTop). It returns the visit
// count (including the final StealEmpty probe that retires each deque),
// items stolen, and claim CAS attempts summed over all deques (zero for
// substrates without a counter, i.e. the mutex deque).
func stealDrainCounted(mk func(hint int) deque.Queue[int], workers int, batched bool) (ops, items, cases int64) {
	qs := make([]deque.Queue[int], workers)
	done := make([]bool, workers)
	for i := range qs {
		qs[i] = mk(stealFill)
		for j := 0; j < stealFill; j++ {
			qs[i].PushBottom(deque.Entry[int]{
				Value:  i*stealFill + j,
				Colors: colorset.Of(allocColors, j%allocColors),
			})
		}
	}
	live := workers
	for v := 0; live > 0; v = (v + 1) % workers {
		if done[v] {
			continue
		}
		ops++
		var out deque.StealOutcome
		if batched {
			var batch []deque.Entry[int]
			batch, out = qs[v].Steal(nil, 0, nil)
			if out == deque.StealOK {
				items += int64(len(batch))
			}
		} else {
			_, out = qs[v].StealTop()
			if out == deque.StealOK {
				items++
			}
		}
		if out == deque.StealEmpty {
			done[v], live = true, live-1
		}
	}
	for _, q := range qs {
		if c, ok := q.(casCounter); ok {
			cases += c.StealCASes()
		}
	}
	return ops, items, cases
}

// stealReport builds the scripted steal-anatomy report: one table per
// steal mode, rows keyed by worker shape, with per-substrate visit and
// CAS-per-item columns.
func stealReport(cfg Config) (*perf.Report, error) {
	rep := cfg.newReport("steal")
	for _, mode := range []struct {
		key, caption string
		batched      bool
	}{
		{"batch", "Steal: scripted round-robin drain, batched Steal (uncapped) — visits and claim CASes per stolen item", true},
		{"single", "Steal: scripted round-robin drain, single-item StealTop — visits and claim CASes per stolen item", false},
	} {
		subs := stealSubstrates()
		metrics := make([]perf.Metric, 0, 2*len(subs))
		for _, s := range subs {
			metrics = append(metrics,
				perf.M("steal_ops_"+s.name, "", perf.LowerIsBetter),
				perf.M("cas_per_item_"+s.name, "", perf.LowerIsBetter))
		}
		t := perf.NewTable("steal/"+mode.key, mode.caption, "P", metrics...)
		for _, workers := range stealWorkerShapes {
			row := make(map[string]float64, len(metrics))
			for _, s := range subs {
				ops, items, cases := stealDrainCounted(s.mk, workers, mode.batched)
				want := int64(workers) * stealFill
				if items != want {
					return nil, fmt.Errorf("steal: %s/%s P=%d drained %d items, want %d",
						mode.key, s.name, workers, items, want)
				}
				row["steal_ops_"+s.name] = float64(ops)
				row["cas_per_item_"+s.name] = float64(cases) / float64(items)
			}
			t.AddRow(itoa(workers), row)
		}
		rep.AddTable(t)
	}
	return rep, nil
}
