package main

import (
	"sync/atomic"
	"time"

	"nabbitc/internal/core"
	"nabbitc/internal/xrand"
)

// coneSpec is a forest of disjoint fan-in cones: cone g owns keys
// [g*stride, g*stride+width], width leaves feeding one sink. Disjoint key
// ranges let many cones be in flight at once and make a per-key census
// meaningful. Each cone has its own salt, set by the generator before the
// cone is submitted; a cone is never in flight twice.
type coneSpec struct {
	cones, width int
	leaves       [][]core.Key
	steps        []uint8
	val          []uint64
	salts        []uint64
	counts       []atomic.Int32 // non-nil only during the census block
}

func newConeSpec(cones, width int, seed uint64) *coneSpec {
	stride := width + 1
	c := &coneSpec{
		cones: cones, width: width,
		leaves: make([][]core.Key, cones),
		steps:  make([]uint8, cones*stride),
		val:    make([]uint64, cones*stride),
		salts:  make([]uint64, cones),
	}
	for g := range c.leaves {
		ls := make([]core.Key, width)
		for i := range ls {
			ls[i] = core.Key(g*stride + i)
		}
		c.leaves[g] = ls
	}
	for k := range c.steps {
		c.steps[k] = spinSteps(seed, k)
	}
	return c
}

func (c *coneSpec) sink(g int) core.Key { return core.Key(g*(c.width+1) + c.width) }

func (c *coneSpec) Predecessors(k core.Key) []core.Key {
	stride := c.width + 1
	if int(k)%stride != c.width {
		return nil
	}
	return c.leaves[int(k)/stride]
}

func (c *coneSpec) Color(k core.Key) int { return int(k) % workers }

func (c *coneSpec) KeyBound() int { return c.cones * (c.width + 1) }

func (c *coneSpec) Compute(k core.Key) {
	g := int(k) / (c.width + 1)
	x := c.salts[g] ^ uint64(k)
	for _, p := range c.Predecessors(k) {
		x += c.val[p]
	}
	c.val[k] = spin(x, int(c.steps[k]))
	if c.counts != nil {
		c.counts[k].Add(1)
	}
}

// walk is the reference for one cone: leaves, then the sink, through the
// same Predecessors and Compute the engine calls.
func (c *coneSpec) walk(g int) uint64 {
	sink := c.sink(g)
	for _, k := range c.Predecessors(sink) {
		_ = c.Predecessors(k)
		c.Compute(k)
	}
	c.Compute(sink)
	return c.val[sink]
}

// submitLoad: one generator goroutine keeps `window` graphs in flight
// through Submit and Ticket.Wait on one persistent engine. window 1 is the
// single-request latency path (admission fast path, table checkout, seed,
// waking parked workers, finishRun); window 128 is the tenancy path (128
// live node tables, the engine's state lock, seeding across graphs).
type submitLoad struct {
	noPrepare
	window, cones, width, graphs int
	seed                         uint64

	spec  *coneSpec
	e     *core.Engine
	order []int    // seeded cone visiting order
	want  []uint64 // sink value per op, from the reference slice
	got   []uint64 // sink value per op, from the engine slice
	bad   []bool
	ring  []inflight
}

type inflight struct {
	tk *core.Ticket
	t0 time.Time
	j  int   // operation index inside the block
	op int32 // the operation's span
}

func newSubmitLoad(window int, quick bool, seed uint64) *submitLoad {
	s := &submitLoad{window: window, cones: 1024, width: 16, graphs: 4096, seed: seed}
	if quick {
		s.cones, s.graphs = 256, 512
	}
	return s
}

func (s *submitLoad) setup() error {
	s.spec = newConeSpec(s.cones, s.width, s.seed)
	s.order = xrand.New(s.seed).Perm(s.cones) // the visiting order is an input
	s.want, s.got, s.bad = make([]uint64, s.graphs), make([]uint64, s.graphs), make([]bool, s.graphs)
	s.ring = make([]inflight, s.window)
	e, err := core.NewEngine(s.spec, core.Options{
		Workers: workers, Policy: policy(s.seed), MaxInflight: s.window,
	})
	s.e = e
	return err
}

// coneOf returns the cone that operation j of block b visits; both slices
// of a block visit the same cones under the same salts.
func (s *submitLoad) coneOf(b, j int) int { return s.order[(b*s.graphs+j)%s.cones] }

func (s *submitLoad) saltOf(b, j int) uint64 { return mix(s.seed, uint64(b*s.graphs+j)) }

func (s *submitLoad) ref(b int, tr *tracer, parent int32) []float64 {
	t0 := time.Now()
	sp := tr.beginAt(spWalk, parent, 0, t0)
	for j := 0; j < s.graphs; j++ {
		g := s.coneOf(b, j)
		s.spec.salts[g] = s.saltOf(b, j)
		s.want[j] = s.spec.walk(g)
	}
	t1 := time.Now()
	tr.endAt(sp, t1)
	return []float64{float64(t1.Sub(t0)) / float64(s.graphs)}
}

func (s *submitLoad) eng(b int, tr *tracer, parent int32, log *opLog) {
	head, n := 0, 0
	finish := func() {
		f := &s.ring[head]
		sp := tr.begin(spWait, f.op, int32(f.j))
		st, err := f.tk.Wait()
		t1 := time.Now()
		tr.endAt(sp, t1)
		tr.endAt(f.op, t1)
		log.add(t1.Sub(f.t0), 0)
		s.bad[f.j] = err != nil || st.NodesCreated != s.width+1
		s.got[f.j] = s.spec.val[s.spec.sink(s.coneOf(b, f.j))]
		head, n = (head+1)%s.window, n-1
	}
	for j := 0; j < s.graphs; j++ {
		if n == s.window {
			finish()
		}
		g := s.coneOf(b, j)
		s.spec.salts[g] = s.saltOf(b, j)
		t0 := time.Now()
		op := tr.beginAt(spOp, parent, int32(j), t0)
		sp := tr.beginAt(spSubmit, op, int32(j), t0)
		tk, err := s.e.Submit(s.spec.sink(g))
		tr.end(sp)
		if err != nil {
			tr.end(op)
			log.add(time.Since(t0), 0)
			s.bad[j] = true
			continue
		}
		s.ring[(head+n)%s.window] = inflight{tk: tk, t0: t0, j: j, op: op}
		n++
	}
	for n > 0 {
		finish()
	}
}

func (s *submitLoad) verify(int) (failed int) {
	for j := range s.bad {
		if s.bad[j] || s.got[j] != s.want[j] {
			failed++
		}
	}
	return failed
}

// census submits every cone once with a per-key counter armed; a graph
// fails if any of its keys was computed other than exactly once.
func (s *submitLoad) census() (attempted, failed int) {
	s.spec.counts = make([]atomic.Int32, s.spec.KeyBound())
	tks := make([]*core.Ticket, 0, s.window)
	errs := 0
	drain := func() {
		for _, tk := range tks {
			if _, err := tk.Wait(); err != nil {
				errs++
			}
		}
		tks = tks[:0]
	}
	for g := 0; g < s.cones; g++ {
		if len(tks) == s.window {
			drain()
		}
		tk, err := s.e.Submit(s.spec.sink(g))
		if err != nil {
			errs++
			continue
		}
		tks = append(tks, tk)
	}
	drain()
	counts := s.spec.counts
	s.spec.counts = nil
	stride := s.width + 1
	for g := 0; g < s.cones; g++ {
		for k := g * stride; k < (g+1)*stride; k++ {
			if counts[k].Load() != 1 {
				failed++
				break
			}
		}
	}
	if errs > failed {
		failed = errs
	}
	return s.cones, failed
}

func (s *submitLoad) close() error { return s.e.Close() }

func (s *submitLoad) layers(res *runResult, tr *tracer) []metric {
	suffix := ".lo"
	if s.window > 1 {
		suffix = ".hi"
	}
	sub, wait := scale(tr.durations(spSubmit), 1e-3), scale(tr.durations(spWait), 1e-3)
	graphs := float64(res.attempted)
	mallocs, bytes := res.allocs()
	n := res.attempted
	return []metric{
		{"core.submit_call_us_p50" + suffix, quantile(sub, 0.5), "us", len(sub)},
		{"core.submit_call_us_p99" + suffix, quantile(sub, 0.99), "us", len(sub)},
		{"core.wait_call_us_p50" + suffix, quantile(wait, 0.5), "us", len(wait)},
		{"core.lat_x_p99" + suffix, quantile(res.latX, 0.99), "x", n},
		{"core.graphs_per_s" + suffix, graphs / (res.engNs() / 1e9), "1/s", n},
		{"core.allocs_per_graph" + suffix, mallocs / graphs, "count", n},
		{"core.bytes_per_graph" + suffix, bytes / graphs, "B", n},
	}
}
