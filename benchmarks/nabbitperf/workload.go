package main

import (
	"runtime"
	"time"

	"nabbitc/internal/core"
	"nabbitc/internal/xrand"
)

// workers is both GOMAXPROCS and Options.Workers for every engine the
// benchmark builds: the sizing box has two cores.
const workers = 2

// workload is one of the five benchmark workloads. A block is one
// reference slice and one engine slice over identical work; the caller
// times the two slices and owns their order.
type workload interface {
	// setup builds the inputs and any persistent engine.
	setup() error
	// prepare builds per-block inputs, untimed.
	prepare(b int)
	// ref runs block b's reference slice and returns the reference time of
	// one operation, in ns, for each operation class.
	ref(b int, tr *tracer, parent int32) []float64
	// eng runs block b's engine slice, logging every operation.
	eng(b int, tr *tracer, parent int32, log *opLog)
	// verify checks block b's outputs once both slices have run, untimed,
	// and returns how many of its operations failed.
	verify(b int) int
	// census runs one extra untimed engine block that counts every key's
	// computations; it returns operations attempted and failed.
	census() (attempted, failed int)
	// layers turns a traced run into this workload's per-layer metrics.
	layers(res *runResult, tr *tracer) []metric
	close() error
}

// noCensus is embedded by workloads whose every block already compares
// complete outputs (checksums, simulator metrics).
type noCensus struct{}

func (noCensus) census() (int, int) { return 0, 0 }

// noPrepare is embedded by workloads whose inputs outlive a block.
type noPrepare struct{}

func (noPrepare) prepare(int) {}

// scale multiplies every element of xs by f, in place.
func scale(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

// opLog collects the engine operations of one block.
type opLog struct {
	ns    []float64
	class []uint8
}

func (l *opLog) add(d time.Duration, class uint8) {
	l.ns = append(l.ns, float64(d))
	l.class = append(l.class, class)
}

type blockStat struct {
	refNs, engNs   float64
	traced         bool
	mallocs, bytes uint64 // heap activity of the engine slice (profiled runs)
}

// runResult is everything one measured run of a workload produced.
type runResult struct {
	blocks    []blockStat
	latX      []float64 // engine-op latency / its block's reference-op time
	attempted int       // engine operations in the timed blocks
	failed    int
	timed     time.Duration
}

// speedups returns reference-slice time over engine-slice time per block.
func (r *runResult) speedups() []float64 {
	out := make([]float64, len(r.blocks))
	for i, b := range r.blocks {
		out[i] = b.refNs / b.engNs
	}
	return out
}

// engNs and refNs sum the slice times over all blocks.
func (r *runResult) engNs() (ns float64) {
	for _, b := range r.blocks {
		ns += b.engNs
	}
	return ns
}

func (r *runResult) refNs() (ns float64) {
	for _, b := range r.blocks {
		ns += b.refNs
	}
	return ns
}

func (r *runResult) allocs() (mallocs, bytes float64) {
	for _, b := range r.blocks {
		mallocs += float64(b.mallocs)
		bytes += float64(b.bytes)
	}
	return mallocs, bytes
}

// runBlock executes one [reference, engine] block in the given order, with
// a collection before each slice so neither inherits the other's garbage.
// With profile set it also reads the allocator's counters around the
// engine slice (outside the timed interval).
func runBlock(w workload, b int, refFirst bool, tr *tracer, profile bool, log *opLog) (bs blockStat, unit []float64) {
	w.prepare(b)
	blk := tr.begin(spBlock, noSpan, int32(b))
	slice := func(isRef bool) {
		runtime.GC()
		if isRef {
			sp := tr.begin(spRefSlice, blk, int32(b))
			t0 := time.Now()
			unit = w.ref(b, tr, sp)
			bs.refNs = float64(time.Since(t0))
			tr.end(sp)
			return
		}
		var m0, m1 runtime.MemStats
		if profile {
			runtime.ReadMemStats(&m0)
		}
		sp := tr.begin(spEngSlice, blk, int32(b))
		t0 := time.Now()
		w.eng(b, tr, sp, log)
		bs.engNs = float64(time.Since(t0))
		tr.end(sp)
		if profile {
			runtime.ReadMemStats(&m1)
			bs.mallocs, bs.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		}
	}
	slice(refFirst)
	slice(!refFirst)
	tr.end(blk)
	bs.traced = tr != nil
	return bs, unit
}

// measure runs timed blocks until budget has passed and the block count is
// even (so both slice orders are equally represented), or exactly `blocks`
// blocks when that is positive. Block 0 is the warm-up block inside
// set-up, so timed blocks are numbered from 1. traceBlock picks the blocks
// that record spans into tr.
func measure(w workload, budget time.Duration, blocks int, tr *tracer, traceBlock func(int) bool, profile bool) *runResult {
	res := &runResult{}
	log := &opLog{}
	start := time.Now()
	for b := 0; ; b++ {
		if blocks > 0 {
			if b == blocks {
				break
			}
		} else if b%2 == 0 && time.Since(start) >= budget {
			break
		}
		var btr *tracer
		if tr != nil && traceBlock(b) && !tr.full() {
			btr = tr
		}
		log.ns, log.class = log.ns[:0], log.class[:0]
		bs, unit := runBlock(w, b+1, refFirst(b), btr, profile, log)
		res.blocks = append(res.blocks, bs)
		for i, ns := range log.ns {
			res.latX = append(res.latX, ns/unit[log.class[i]])
		}
		res.attempted += len(log.ns)
		res.failed += w.verify(b + 1)
	}
	res.timed = time.Since(start)
	return res
}

// xorshift is one step of Marsaglia's 64-bit xorshift; x must not be 0.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// spin is the synthetic task body: n xorshift steps on x.
func spin(x uint64, n int) uint64 {
	x |= 1
	for i := 0; i < n; i++ {
		x = xorshift(x)
	}
	return x
}

// mix hashes (seed, i) to 64 well-spread bits.
func mix(seed, i uint64) uint64 {
	state := seed + i*0x9e3779b97f4a7c15
	return xrand.SplitMix64(&state)
}

// spinSteps draws task k's spin length: 64 steps ±25 %, from the seed.
func spinSteps(seed uint64, k int) uint8 { return uint8(48 + mix(seed, uint64(k))%33) }

// policy is the one scheduler configuration every engine workload uses:
// the paper's NabbitC with default deque and node-table resolution.
func policy(seed uint64) core.Policy {
	p := core.NabbitCPolicy()
	p.Seed = seed
	return p
}

// statsAcc sums core.Stats over Execute operations.
type statsAcc struct {
	ops, tasks, ownColor          int64
	attempts, stealsOK, coloredOK int64
	parks, wakes, spins, grows    int64
	firstWork                     time.Duration
}

func (a *statsAcc) add(st *core.Stats) {
	a.ops++
	a.tasks += st.TotalNodes()
	for i := range st.Workers {
		a.ownColor += st.Workers[i].OwnColorNodes
	}
	ok, colored := st.SuccessfulSteals()
	a.attempts += st.StealAttempts()
	a.stealsOK += ok
	a.coloredOK += colored
	a.parks += st.Parks()
	a.wakes += st.Wakes()
	a.spins += st.SpinRounds()
	a.grows += st.DequeGrows()
	a.firstWork += st.AvgTimeToFirstWork()
}

// metrics reports the steal, park and locality anatomy under the given
// name suffix (".fine" or ".coarse").
func (a *statsAcc) metrics(suffix string) []metric {
	ops, tasks := float64(a.ops), float64(a.tasks)
	n := int(a.ops)
	return []metric{
		{"core.steal_attempts_per_ktask" + suffix, ratio(1000*float64(a.attempts), tasks), "count", n},
		{"core.steal_hit_ratio" + suffix, ratio(float64(a.stealsOK), float64(a.attempts)), "ratio", n},
		{"core.colored_steal_share" + suffix, ratio(float64(a.coloredOK), float64(a.stealsOK)), "ratio", n},
		{"core.parks_per_op" + suffix, ratio(float64(a.parks), ops), "count", n},
		{"core.wakes_per_op" + suffix, ratio(float64(a.wakes), ops), "count", n},
		{"core.spin_rounds_per_op" + suffix, ratio(float64(a.spins), ops), "count", n},
		{"core.first_work_us" + suffix, ratio(float64(a.firstWork)/1e3, ops), "us", n},
		{"core.own_color_pct" + suffix, ratio(100*float64(a.ownColor), tasks), "%", n},
		{"core.deque_grows" + suffix, float64(a.grows), "count", n},
	}
}
