// Package omp implements an OpenMP-like parallel-for runtime: a persistent
// team of workers executing loop sweeps under static or guided scheduling,
// separated by sense-reversing barriers.
//
// The paper compares NabbitC against OpenMP's two loop schedules:
// OPENMPSTATIC divides the iteration space into P even contiguous blocks
// (perfect locality for regular applications whose init and compute loops
// match, perfect load balance when iterations cost the same), and
// OPENMPGUIDED hands out adaptively shrinking chunks from a shared counter
// (good load balance, no locality). This package reproduces those
// semantics for the real-execution benchmarks; package simomp mirrors the
// same chunking math in virtual time for the figure reproductions.
package omp

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Schedule selects the loop scheduling policy.
type Schedule int

const (
	// Static assigns worker w the contiguous range
	// [w*N/P, (w+1)*N/P).
	Static Schedule = iota
	// Guided hands out chunks of max(remaining/(2P), MinChunk)
	// iterations from a shared counter.
	Guided
)

// String names the schedule as OpenMP spells it.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Guided:
		return "guided"
	default:
		return "unknown"
	}
}

// MinChunk is the smallest chunk Guided hands out, matching the usual
// OpenMP default of 1 but batched slightly to keep counter contention from
// dominating microscopic loops.
const MinChunk = 1

// Team is a persistent group of worker goroutines, analogous to an OpenMP
// thread team: worker w has color w, and sweeps run by the same team reuse
// the same workers, so a Static sweep touches the same data from the same
// worker every time — the property that gives OpenMP its locality on
// regular codes.
type Team struct {
	p       int
	cmds    []chan func(w int)
	barrier *Barrier
	wg      sync.WaitGroup
	closed  bool
}

// NewTeam starts a team of p workers.
func NewTeam(p int) *Team {
	if p <= 0 {
		panic(fmt.Sprintf("omp: team size %d", p))
	}
	t := &Team{
		p:       p,
		cmds:    make([]chan func(w int), p),
		barrier: NewBarrier(p),
	}
	for w := 0; w < p; w++ {
		t.cmds[w] = make(chan func(w int))
		t.wg.Add(1)
		go func(w int) {
			defer t.wg.Done()
			for fn := range t.cmds[w] {
				fn(w)
			}
		}(w)
	}
	return t
}

// Close shuts the team down. The team must be idle.
func (t *Team) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, c := range t.cmds {
		close(c)
	}
	t.wg.Wait()
}

// Run executes fn on every worker concurrently and waits for all of them.
func (t *Team) Run(fn func(w int)) {
	var done sync.WaitGroup
	done.Add(t.p)
	for w := 0; w < t.p; w++ {
		t.cmds[w] <- func(w int) {
			defer done.Done()
			fn(w)
		}
	}
	done.Wait()
}

// For executes body(i, w) for every i in [0, n) across the team under the
// given schedule, returning when all iterations complete. body must be
// safe for concurrent invocation on distinct i.
func (t *Team) For(n int, sched Schedule, body func(i, w int)) {
	switch sched {
	case Static:
		t.Run(func(w int) {
			lo, hi := StaticRange(n, t.p, w)
			for i := lo; i < hi; i++ {
				body(i, w)
			}
		})
	case Guided:
		var next atomic.Int64
		t.Run(func(w int) {
			for {
				lo, hi, ok := guidedGrab(&next, n, t.p)
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					body(i, w)
				}
			}
		})
	default:
		panic(fmt.Sprintf("omp: unknown schedule %d", sched))
	}
}

// ForSweeps runs sweeps consecutive parallel-for loops of n iterations
// with a team-wide barrier between consecutive sweeps; body receives the
// sweep index as well. This is the OpenMP formulation of iterative
// stencils ("#pragma omp for" inside a timestep loop).
func (t *Team) ForSweeps(sweeps, n int, sched Schedule, body func(sweep, i, w int)) {
	switch sched {
	case Static:
		t.Run(func(w int) {
			lo, hi := StaticRange(n, t.p, w)
			for s := 0; s < sweeps; s++ {
				for i := lo; i < hi; i++ {
					body(s, i, w)
				}
				t.barrier.Wait(w)
			}
		})
	case Guided:
		counters := make([]atomic.Int64, sweeps)
		t.Run(func(w int) {
			for s := 0; s < sweeps; s++ {
				for {
					lo, hi, ok := guidedGrab(&counters[s], n, t.p)
					if !ok {
						break
					}
					for i := lo; i < hi; i++ {
						body(s, i, w)
					}
				}
				t.barrier.Wait(w)
			}
		})
	default:
		panic(fmt.Sprintf("omp: unknown schedule %d", sched))
	}
}

// StaticRange returns worker w's contiguous iteration range under a
// static schedule of n iterations over p workers.
func StaticRange(n, p, w int) (lo, hi int) {
	return n * w / p, n * (w + 1) / p
}

// GuidedChunk returns the chunk size OpenMP's guided schedule hands out
// when `remaining` iterations are left on a p-worker team.
func GuidedChunk(remaining, p int) int {
	c := remaining / (2 * p)
	if c < MinChunk {
		c = MinChunk
	}
	if c > remaining {
		c = remaining
	}
	return c
}

// guidedGrab atomically takes the next guided chunk from the counter.
func guidedGrab(next *atomic.Int64, n, p int) (lo, hi int, ok bool) {
	for {
		cur := next.Load()
		if cur >= int64(n) {
			return 0, 0, false
		}
		c := GuidedChunk(n-int(cur), p)
		if next.CompareAndSwap(cur, cur+int64(c)) {
			return int(cur), int(cur) + c, true
		}
	}
}
