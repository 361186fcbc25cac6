package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nabbitc/internal/core"
	"nabbitc/internal/numa"
)

// recordSchedule runs the spec and renders the full completion schedule —
// (virtual time, worker, key) per task, in completion order — as bytes.
func recordSchedule(t *testing.T, spec core.CostSpec, sink core.Key, opts Options) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	opts.OnComplete = func(vt int64, w int, k core.Key) {
		fmt.Fprintf(&buf, "%d %d %d\n", vt, w, k)
	}
	res, err := Run(spec, sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// Determinism regression for the hierarchical policy: two runs with equal
// Policy.Seed, worker count, and topology must produce byte-identical
// schedules and identical Stats.
func TestHierDeterminism(t *testing.T) {
	spec, sink, _ := stencilSpec(5, 120, 20, testFP)
	for _, workers := range []int{4, 20, 40} {
		for _, seed := range []uint64{1, 7, 99} {
			pol := core.NabbitCHierPolicy()
			pol.Seed = seed
			opts := Options{
				Workers:  workers,
				Policy:   pol,
				Topology: numa.Topology{Workers: workers, CoresPerDomain: 4},
			}
			s1, r1 := recordSchedule(t, spec, sink, opts)
			s2, r2 := recordSchedule(t, spec, sink, opts)
			if !bytes.Equal(s1, s2) {
				t.Fatalf("P=%d seed=%d: schedules differ (%d vs %d bytes)",
					workers, seed, len(s1), len(s2))
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("P=%d seed=%d: results differ:\n%+v\nvs\n%+v", workers, seed, r1, r2)
			}
			if r1.Makespan <= 0 {
				t.Fatalf("P=%d seed=%d: nonpositive makespan %d", workers, seed, r1.Makespan)
			}
		}
	}
}

// Different seeds must be able to produce different schedules (otherwise
// the determinism test above proves nothing about seed plumbing).
func TestHierSeedChangesSchedule(t *testing.T) {
	spec, sink, _ := stencilSpec(5, 120, 20, testFP)
	mk := func(seed uint64) []byte {
		pol := core.NabbitCHierPolicy()
		pol.Seed = seed
		s, _ := recordSchedule(t, spec, sink, Options{Workers: 20, Policy: pol})
		return s
	}
	base := mk(1)
	for seed := uint64(2); seed < 10; seed++ {
		if !bytes.Equal(base, mk(seed)) {
			return
		}
	}
	t.Fatal("10 different seeds produced identical schedules; seed is not plumbed through")
}

// The hierarchical tiers must actually engage on a multi-socket topology:
// socket-tier probes happen, and same-socket steals serve a nonzero share.
func TestHierTiersEngage(t *testing.T) {
	spec, sink, _ := stencilSpec(6, 200, 20, testFP)
	res, err := Run(spec, sink, Options{Workers: 20, Policy: core.NabbitCHierPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	at := res.TierAttempts()
	sockAttempts := at[core.TierOwnColor] + at[core.TierSocketColored] + at[core.TierSocketRandom]
	if sockAttempts == 0 {
		t.Fatal("no socket-tier probes on a 2-socket machine")
	}
	st := res.TierSteals()
	var totalTier int64
	for _, n := range st {
		totalTier += n
	}
	total, _ := res.SuccessfulSteals()
	if totalTier != total {
		t.Fatalf("tier steals sum to %d, StealsOK says %d", totalTier, total)
	}
	var totalAttempts int64
	for _, n := range at {
		totalAttempts += n
	}
	if totalAttempts != res.StealAttempts() {
		t.Fatalf("tier attempts sum to %d, StealAttempts says %d", totalAttempts, res.StealAttempts())
	}
}

// On a single-socket topology the hierarchical policy must degenerate
// cleanly: no socket-tier probes, and the run still completes every task.
func TestHierSingleSocketDegenerates(t *testing.T) {
	spec, sink, nodes := stencilSpec(4, 40, 8, testFP)
	res, err := Run(spec, sink, Options{Workers: 8, Policy: core.NabbitCHierPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.TotalNodes()) != nodes { // stencilSpec's count includes the sink
		t.Fatalf("executed %d nodes, want %d", res.TotalNodes(), nodes)
	}
	at := res.TierAttempts()
	if at[core.TierOwnColor]+at[core.TierSocketColored]+at[core.TierSocketRandom] != 0 {
		t.Fatalf("socket tiers probed on a single-socket machine: %v", at)
	}
}

// Batched cross-socket steals must move more than one item per steal on a
// graph wide enough to fill deques; every item must still execute exactly
// once (the batch is accounted, not duplicated).
func TestHierBatchedStealsMoveWork(t *testing.T) {
	// Wide fan-out: one source, many independent mid tasks, one sink —
	// worker 0's deque fills with stealable items.
	const width = 400
	spec := core.FuncSpec{
		PredsFn: func(k core.Key) []core.Key {
			switch {
			case k == 0:
				return nil
			case k <= width:
				return []core.Key{0}
			default:
				ps := make([]core.Key, width)
				for i := range ps {
					ps[i] = core.Key(i + 1)
				}
				return ps
			}
		},
		ColorFn:     func(k core.Key) int { return int(k) % 20 },
		FootprintFn: func(core.Key) core.Footprint { return testFP },
	}
	sink := core.Key(width + 1)
	res, err := Run(spec, sink, Options{Workers: 20, Policy: core.NabbitCHierPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.TotalNodes()) != width+2 {
		t.Fatalf("executed %d nodes, want %d", res.TotalNodes(), width+2)
	}
	var ops, items int64
	for i := range res.Workers {
		ops += res.Workers[i].BatchOps
		items += res.Workers[i].BatchItems
	}
	if ops == 0 {
		t.Fatal("no batched steals on a wide graph across sockets")
	}
	if items < ops {
		t.Fatalf("batch accounting inconsistent: %d items over %d ops", items, ops)
	}
	if res.AvgBatchSize() <= 1.0 {
		t.Logf("note: avg batch size %.2f (graph may drain too fast to batch)", res.AvgBatchSize())
	}
}

// Every worker's probes must be whole sweeps of its core.StealPlan, on the
// paper's 10-core sockets and on 2-core ones: a sweep ends at the plan's
// end or at a hit, and at most one sweep per worker is cut off by the end
// of the run.
func TestHierProbesFollowPlan(t *testing.T) {
	spec, sink, _ := stencilSpec(6, 200, 20, testFP)
	for _, topo := range []numa.Topology{numa.Paper(20), {Workers: 20, CoresPerDomain: 2}} {
		opts := Options{Workers: 20, Policy: core.NabbitCHierPolicy(), Topology: topo}
		res, err := Run(spec, sink, opts)
		if err != nil {
			t.Fatal(err)
		}
		for wid, ws := range res.Workers {
			if err := checkPlanSweeps(core.StealPlan(opts.Policy, topo, wid), ws); err != nil {
				t.Fatalf("%+v worker %d: %v", topo, wid, err)
			}
		}
	}
}

// checkPlanSweeps is internal/core's test of the same name for a simulated
// worker, which may stop mid-sweep when the run ends.
func checkPlanSweeps(plan []core.StealStep, ws WorkerStats) error {
	at, hits := ws.TierAttempts, ws.TierSteals
	at[core.TierGlobalColored] -= ws.FirstStealChecks
	if ws.FirstStealForcedOK {
		hits[core.TierGlobalColored]--
	}
	var inPlan [core.NumStealTiers]bool
	for _, s := range plan {
		inPlan[s.Tier] = true
	}
	for tier := range at {
		if !inPlan[tier] && (at[tier] != 0 || hits[tier] != 0) {
			return fmt.Errorf("tier %v is not in the plan but has %d probes", core.StealTier(tier), at[tier])
		}
	}
	sweeps := at[core.TierGlobalRandom] - hits[core.TierGlobalRandom]
	var hitsAfter int64
	for i := len(plan) - 1; i >= 0; i-- {
		s := plan[i]
		b := int64(s.Budget)
		base := (sweeps + hitsAfter) * b
		lo, hi := base+hits[s.Tier], base+(hits[s.Tier]+1)*b
		if at[s.Tier] < lo || at[s.Tier] > hi {
			return fmt.Errorf("tier %v: %d probes, want %d..%d for %d sweeps, %d hits there and %d after (budget %d)",
				s.Tier, at[s.Tier], lo, hi, sweeps, hits[s.Tier], hitsAfter, b)
		}
		hitsAfter += hits[s.Tier]
	}
	return nil
}

// TestFlatColoredHitKeepsSweep pins a known divergence so that fixing it is
// a visible decision: under the flat policy a simulated worker's colored
// hit does not restart its sweep — it goes on with the next colored probe —
// where the hierarchical policy and every hunt of the real engine start
// over at the top of the plan. So every global-random probe closes exactly
// one sweep of ColoredStealAttempts colored probes, hits or not. The PR
// that makes a flat colored hit restart the sweep changes schedules and
// flips this test (then each colored hit adds at least one colored probe,
// and the workers below hit more often than one sweep holds).
func TestFlatColoredHitKeepsSweep(t *testing.T) {
	spec, sink, _ := stencilSpec(30, 64, 8, testFP)
	res, err := Run(spec, sink, Options{Workers: 8, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	c := int64(core.NabbitCPolicy().WithDefaults().ColoredStealAttempts)
	var biting int
	for wid, ws := range res.Workers {
		colored := ws.TierAttempts[core.TierGlobalColored] - ws.FirstStealChecks
		random := ws.TierAttempts[core.TierGlobalRandom]
		if colored < random*c || colored > random*c+c {
			t.Fatalf("worker %d: %d colored probes around %d random ones, want %d..%d",
				wid, colored, random, random*c, random*c+c)
		}
		hits := ws.TierSteals[core.TierGlobalColored]
		if ws.FirstStealForcedOK {
			hits--
		}
		if hits > c {
			biting++
		}
	}
	if biting == 0 {
		t.Fatalf("no worker made more than %d colored hits: the test cannot tell the two behaviours apart", c)
	}
}
