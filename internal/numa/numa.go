// Package numa models the machine that the paper evaluates on: a
// multi-socket NUMA system where cores are grouped into domains and a
// memory access served by a remote domain's controller costs a multiple of
// a local access.
//
// The paper's testbed is an 80-core machine with 8 Intel Xeon E7-8860
// sockets (10 cores each) — eight NUMA domains. Each worker thread is
// pinned to a core and assigned a unique color; data is distributed so
// that the region initialized by a thread is homed in that thread's
// domain. A task whose color belongs to the executing worker's domain
// makes local accesses; otherwise its accesses are remote.
//
// Go's runtime does not expose thread→core pinning or page placement, so
// this package is the substitution the README's introduction describes:
// an explicit topology plus a cost model that the discrete-event simulator
// charges and that the real engine uses for the paper's node-level
// remote-access accounting (§V-B).
package numa

import "fmt"

// Topology describes the simulated machine: Workers cores partitioned into
// NUMA domains of CoresPerDomain consecutive cores each. Worker i has
// color i; colors outside [0, Workers) are "invalid" and belong to no
// domain (used by the invalid-coloring ablation, Table III).
type Topology struct {
	Workers        int
	CoresPerDomain int
}

// Paper returns the paper's testbed topology restricted to p cores:
// domains of 10 cores each (8 domains at p = 80).
func Paper(p int) Topology {
	return Topology{Workers: p, CoresPerDomain: 10}
}

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Workers <= 0 {
		return fmt.Errorf("numa: Workers = %d, need > 0", t.Workers)
	}
	if t.CoresPerDomain <= 0 {
		return fmt.Errorf("numa: CoresPerDomain = %d, need > 0", t.CoresPerDomain)
	}
	return nil
}

// Domains returns the number of NUMA domains (the last one may be
// partially filled).
func (t Topology) Domains() int {
	return (t.Workers + t.CoresPerDomain - 1) / t.CoresPerDomain
}

// DomainOf returns the domain that color c's core belongs to, or -1 for
// colors outside [0, Workers) (invalid colors match no domain, so every
// access they imply is counted remote and every colored steal for them
// fails).
func (t Topology) DomainOf(c int) int {
	if c < 0 || c >= t.Workers {
		return -1
	}
	return c / t.CoresPerDomain
}

// SameDomain reports whether colors a and b live in the same NUMA domain.
// Invalid colors are in no domain, not even each other's.
func (t Topology) SameDomain(a, b int) bool {
	da, db := t.DomainOf(a), t.DomainOf(b)
	return da >= 0 && da == db
}

// Remote reports whether a worker of color w accessing data homed at color
// c pays the remote penalty.
func (t Topology) Remote(w, c int) bool {
	return !t.SameDomain(w, c)
}

// SocketWorkers returns the half-open worker-id range [lo, hi) of the
// socket (NUMA domain) that color c's core belongs to, or (0, 0) for
// invalid colors. Worker ids within a socket are consecutive, so the range
// is all a hierarchical thief needs to enumerate its same-socket victims.
func (t Topology) SocketWorkers(c int) (lo, hi int) {
	d := t.DomainOf(c)
	if d < 0 {
		return 0, 0
	}
	lo = d * t.CoresPerDomain
	hi = lo + t.CoresPerDomain
	if hi > t.Workers {
		hi = t.Workers
	}
	return lo, hi
}

// SocketSize returns the number of workers sharing color c's socket
// (including c itself), or 0 for invalid colors. A hierarchical thief has
// same-socket victims only when its SocketSize exceeds 1 and the socket is
// a strict subset of the machine — the engines derive that per worker from
// SocketWorkers.
func (t Topology) SocketSize(c int) int {
	lo, hi := t.SocketWorkers(c)
	return hi - lo
}

// CostModel converts task footprints into virtual time for the simulator.
// Units are arbitrary "cycles"; only ratios matter for speedup shapes.
type CostModel struct {
	// LocalByteCost is the virtual cost of touching one byte homed in
	// the executing worker's own NUMA domain.
	LocalByteCost float64
	// RemotePenalty multiplies LocalByteCost for bytes homed in another
	// domain. NUMA factors of 2–3 are typical of the paper's class of
	// machine.
	RemotePenalty float64
	// ComputeUnitCost is the virtual cost of one location-independent
	// compute unit.
	ComputeUnitCost float64
	// NodeOverhead is charged once per task-graph node (creation,
	// initialization, join bookkeeping).
	NodeOverhead int64
	// EdgeOverhead is charged once per dependence edge checked.
	EdgeOverhead int64
	// StealAttemptCost is charged per steal attempt, successful or not
	// (probing a victim's deque top).
	StealAttemptCost int64
	// StealSuccessCost is the additional cost of completing a steal
	// (moving the frame, cache warm-up).
	StealSuccessCost int64
}

// DefaultCostModel returns the model used by the experiment harness. The
// remote penalty of 2.5 is in the range reported for Westmere-EX-class
// 8-socket machines.
func DefaultCostModel() CostModel {
	return CostModel{
		LocalByteCost:    1.0,
		RemotePenalty:    2.5,
		ComputeUnitCost:  1.0,
		NodeOverhead:     200,
		EdgeOverhead:     40,
		StealAttemptCost: 120,
		StealSuccessCost: 600,
	}
}

// Validate reports whether the cost model is usable.
func (m CostModel) Validate() error {
	if m.LocalByteCost <= 0 {
		return fmt.Errorf("numa: LocalByteCost = %v, need > 0", m.LocalByteCost)
	}
	if m.RemotePenalty < 1 {
		return fmt.Errorf("numa: RemotePenalty = %v, need >= 1", m.RemotePenalty)
	}
	if m.ComputeUnitCost < 0 || m.NodeOverhead < 0 || m.EdgeOverhead < 0 ||
		m.StealAttemptCost < 0 || m.StealSuccessCost < 0 {
		return fmt.Errorf("numa: negative cost in model %+v", m)
	}
	return nil
}

// AccessCost returns the virtual time to touch bytes homed at color home
// from a worker of color w.
func (m CostModel) AccessCost(t Topology, w, home int, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	c := m.LocalByteCost * float64(bytes)
	if t.Remote(w, home) {
		c *= m.RemotePenalty
	}
	return int64(c)
}

// SpreadAccessCost returns the virtual time to touch bytes spread
// uniformly over all domains: a fraction 1/Domains is local, the rest
// remote, independent of where the task runs. This models the irregular
// pointer-chasing traffic (e.g. PageRank edge updates, Smith–Waterman
// boundary rows) that no scheduler can localize.
func (m CostModel) SpreadAccessCost(t Topology, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	d := float64(t.Domains())
	local := m.LocalByteCost * float64(bytes) / d
	remote := m.LocalByteCost * m.RemotePenalty * float64(bytes) * (d - 1) / d
	return int64(local + remote)
}

// AccessCounter tallies the paper's node-level locality metric: one access
// for each executed node, plus one per predecessor of each executed node;
// an access is remote when the data's color belongs to a different NUMA
// domain than the executing worker.
type AccessCounter struct {
	Local  int64
	Remote int64
}

// Count records one access to data homed at color home by a worker of
// color w.
func (a *AccessCounter) Count(t Topology, w, home int) {
	if t.Remote(w, home) {
		a.Remote++
	} else {
		a.Local++
	}
}

// Merge adds o into a.
func (a *AccessCounter) Merge(o AccessCounter) {
	a.Local += o.Local
	a.Remote += o.Remote
}

// Total returns the access count.
func (a AccessCounter) Total() int64 { return a.Local + a.Remote }

// RemotePercent returns the percentage of accesses that were remote, or 0
// if none were recorded.
func (a AccessCounter) RemotePercent() float64 {
	if a.Total() == 0 {
		return 0
	}
	return 100 * float64(a.Remote) / float64(a.Total())
}
