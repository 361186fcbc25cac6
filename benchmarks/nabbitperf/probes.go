package main

import (
	"sync"
	"sync/atomic"
	"time"

	"nabbitc/internal/bench/stencil"
	"nabbitc/internal/bench/sw"
	"nabbitc/internal/colorset"
	"nabbitc/internal/core"
	"nabbitc/internal/deque"
	"nabbitc/internal/omp"
)

// The probes time single layers through their public functions, outside
// any engine run. Each is repeated probeReps times and reports the median,
// so one pre-empted repetition does not set the number.
const probeReps = 5

func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// probeNodeStore times create-or-get on both node-table backends over the
// fine-grid key universe: first touch of every key (create), then a second
// pass over the same keys (lookup).
func probeNodeStore(quick bool, seed uint64) []metric {
	spec := newGridSpec(gridSide(quick), seed)
	keys := spec.KeyBound()
	var ms []metric
	for _, be := range []core.NodeTableBackend{core.NodeTableDense, core.NodeTableSharded} {
		create := make([]float64, probeReps)
		lookup := make([]float64, probeReps)
		for r := 0; r < probeReps; r++ {
			ns, err := core.NewNodeStore(spec, workers, be)
			if err != nil {
				panic(err) // the grid spec is bounded: both backends accept it
			}
			pass := func() float64 {
				t0 := time.Now()
				for k := 0; k < keys; k++ {
					ns.GetOrCreate(core.Key(k))
				}
				return float64(time.Since(t0)) / float64(keys)
			}
			create[r], lookup[r] = pass(), pass()
		}
		ms = append(ms,
			metric{"core.nodestore_create_ns." + be.String(), median(create), "ns", probeReps},
			metric{"core.nodestore_lookup_ns." + be.String(), median(lookup), "ns", probeReps})
	}
	return ms
}

// probeDeques times each deque substrate: owner push+pop, uncontended
// steals, and a concurrent drain by the owner and one thief that also
// counts entries handed out more than once.
func probeDeques(quick bool) []metric {
	items := 1 << 16
	if quick {
		items = 1 << 12
	}
	substrates := []struct {
		name string
		mk   func() deque.Queue[int]
	}{
		{"mutex", func() deque.Queue[int] { return deque.NewMutex[int](items) }},
		{"chaselev", func() deque.Queue[int] { return deque.NewChaseLev[int](items) }},
		{"block", func() deque.Queue[int] { return deque.NewBlock[int](items) }},
	}
	entry := func(i int) deque.Entry[int] {
		return deque.Entry[int]{Value: i, Colors: colorset.Of(workers, i%workers)}
	}
	var ms []metric
	for _, s := range substrates {
		pushPop := medianOf(probeReps, func() float64 {
			q := s.mk()
			t0 := time.Now()
			for i := 0; i < items; i++ {
				q.PushBottom(entry(i))
			}
			for i := 0; i < items; i++ {
				q.PopBottom()
			}
			return float64(time.Since(t0)) / float64(items)
		})
		steal := medianOf(probeReps, func() float64 {
			q := s.mk()
			for i := 0; i < items; i++ {
				q.PushBottom(entry(i))
			}
			t0 := time.Now()
			for {
				if _, out := q.StealTop(); out == deque.StealEmpty {
					break
				}
			}
			return float64(time.Since(t0)) / float64(items)
		})
		var dups int64
		drain := medianOf(probeReps, func() float64 {
			secs, d := drainDeque(s.mk(), items, entry)
			dups += d
			return float64(items) / secs
		})
		ms = append(ms,
			metric{"deque.push_pop_ns." + s.name, pushPop, "ns", probeReps},
			metric{"deque.steal_ns." + s.name, steal, "ns", probeReps},
			metric{"deque.drain_items_per_s." + s.name, drain, "1/s", probeReps},
			// Summed over the repetitions: any non-zero value is a defect.
			metric{"deque.dup_items." + s.name, float64(dups), "count", probeReps})
	}
	return ms
}

// drainDeque has the owner push every item, popping one after every third
// push, while one thief steals continuously; it returns the wall time
// until every item is consumed and how many hand-outs were duplicates.
func drainDeque(q deque.Queue[int], items int, entry func(int) deque.Entry[int]) (secs float64, dups int64) {
	seen := make([]atomic.Int32, items)
	var taken, dup atomic.Int64
	take := func(v int) {
		if seen[v].Add(1) > 1 {
			dup.Add(1)
		}
		taken.Add(1)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		for {
			if e, out := q.StealTop(); out == deque.StealOK {
				take(e.Value)
				continue
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < items; i++ {
		q.PushBottom(entry(i))
		if i%3 == 2 {
			if e, ok := q.PopBottom(); ok {
				take(e.Value)
			}
		}
	}
	for {
		e, ok := q.PopBottom()
		if !ok {
			break
		}
		take(e.Value)
	}
	// The thief may hold the last item; wait until all are accounted for.
	// The deadline only matters for a deque that loses items, which then
	// shows as a collapsed drain rate instead of a hung benchmark.
	for taken.Load() < int64(items) && time.Since(t0) < 2*time.Second {
		time.Sleep(10 * time.Microsecond)
	}
	secs = time.Since(t0).Seconds()
	close(done)
	wg.Wait()
	return secs, dup.Load()
}

var probeSink int

// probeColorset times building a one-color set and testing membership,
// the pair every push and colored steal performs.
func probeColorset() metric {
	const iters = 1 << 20
	ns := medianOf(probeReps, func() float64 {
		hits := 0
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if colorset.Of(workers, i%workers).Has((i >> 1) % workers) {
				hits++
			}
		}
		probeSink += hits
		return float64(time.Since(t0)) / iters
	})
	return metric{"colorset.of_has_ns", ns, "ns", probeReps}
}

// probeKernels times the coarse-kernels denominators on their own: the
// serial kernels per task and against calib (so a slowed RunSerial cannot
// pass as a scheduler speed-up), and the OpenMP-style static formulation,
// the paper's comparison point.
func probeKernels(quick bool, seed uint64) []metric {
	swc, lifec := coarseConfigs(quick)
	s, l := sw.New(swc), stencil.New(lifec)
	team := omp.NewTeam(workers)
	defer team.Close()
	timeIt := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0))
	}
	const reps = 3
	swSerial := medianOf(reps, func() float64 { return timeIt(s.NewReal().RunSerial) })
	lifeSerial := medianOf(reps, func() float64 { return timeIt(l.NewReal().RunSerial) })
	swOMP := medianOf(reps, func() float64 {
		r := s.NewReal()
		return timeIt(func() { r.RunOpenMP(team, omp.Static) })
	})
	lifeOMP := medianOf(reps, func() float64 {
		r := l.NewReal()
		return timeIt(func() { r.RunOpenMP(team, omp.Static) })
	})
	c := newCalibrator(seed)
	calib := medianOf(reps, func() float64 { return timeIt(func() { c.op() }) })
	return []metric{
		{"bench.serial_ns_per_task.sw", swSerial / float64(s.Info().Nodes), "ns", reps},
		{"bench.serial_ns_per_task.life", lifeSerial / float64(l.Info().Nodes), "ns", reps},
		{"bench.serial_vs_calib", (swSerial + lifeSerial) / calib, "x", reps},
		{"omp.speedup_vs_serial.sw", swSerial / swOMP, "x", reps},
		{"omp.speedup_vs_serial.life", lifeSerial / lifeOMP, "x", reps},
	}
}
