package core

import (
	"nabbitc/internal/colorset"
	"nabbitc/internal/numa"
	"nabbitc/internal/xrand"
)

// StealTier identifies one rung of the hierarchical victim order (see
// Policy.Hierarchical). The flat protocol's probes are accounted under the
// global tiers, so tier counters are comparable across policies.
type StealTier int

const (
	// TierOwnColor: same-socket victim, top item contains the thief's
	// exact color.
	TierOwnColor StealTier = iota
	// TierSocketColored: same-socket victim, top item contains any color
	// homed in the thief's socket.
	TierSocketColored
	// TierSocketRandom: same-socket victim, any item.
	TierSocketRandom
	// TierGlobalColored: any victim, thief's exact color (the flat
	// protocol's colored probe).
	TierGlobalColored
	// TierGlobalRandom: any victim, any item (the flat protocol's random
	// steal; batched when the victim is cross-socket under Hierarchical).
	TierGlobalRandom
	// NumStealTiers sizes per-tier counter arrays.
	NumStealTiers
)

// String names the tier.
func (t StealTier) String() string {
	switch t {
	case TierOwnColor:
		return "own-color"
	case TierSocketColored:
		return "socket-colored"
	case TierSocketRandom:
		return "socket-random"
	case TierGlobalColored:
		return "global-colored"
	case TierGlobalRandom:
		return "global-random"
	default:
		return "unknown"
	}
}

// StealStep is one rung of a worker's steal plan: Budget probes of random
// victims drawn from the worker ids [Lo, Hi) (never the thief itself),
// each taking the victim's oldest item only if Filter admits it.
type StealStep struct {
	Tier StealTier
	// Lo and Hi bound the victims: the thief's socket, or [0, P).
	Lo, Hi int
	// Filter gates the victim's oldest item: nil admits any item,
	// otherwise the item's colours must intersect it (the thief's own
	// one-bit colour set, or its socket's colours).
	Filter *colorset.Set
	// Budget is how many probes the step makes per sweep.
	Budget int
	// Batch is how many items a probe takes from a cross-socket victim
	// (up to half the victim's deque); 0 means it never batches.
	Batch int
}

// Victim draws the victim of one probe of s: a random worker of [Lo, Hi)
// other than self, which the range holds.
func (s *StealStep) Victim(rng *xrand.Rand, self int) int {
	v := s.Lo + rng.Intn(s.Hi-s.Lo-1)
	if v >= self {
		v++
	}
	return v
}

// Take returns how many items one probe of s asks a victim for: s.Batch
// from a victim in another NUMA domain when s batches, which makes the
// probe a batch, and otherwise one item.
func (s *StealStep) Take(sameDomain bool) (take int, batch bool) {
	if s.Batch > 0 && !sameDomain {
		return s.Batch, true
	}
	return 1, false
}

// socketTierBudget is the hierarchical protocol's probes per sweep of each
// same-socket tier.
const socketTierBudget = 2

// StealBatch is the most items one batched cross-socket steal of the
// hierarchical protocol takes: what both machines size their steal
// scratch to.
const StealBatch = 8

// StealPlan is the victim order an idle worker of policy p walks, one sweep
// per pass over the steps, as the real engine and the simulator both read
// it. The flat protocol is ColoredStealAttempts colored probes and then one
// random probe; Hierarchical puts three same-socket tiers in front and
// batches cross-socket steals (see Policy.Hierarchical). Socket tiers exist
// only when the worker's socket has peers and is not the whole machine, and
// colored tiers only under Colored. Every plan ends with the global random
// step, and under Colored the global colored step comes right before it:
// that step, unbatched, is also what the enforced first colored steal
// (Policy.ForceFirstColoredSteal) probes (see FirstStealStep).
func StealPlan(p Policy, topo numa.Topology, wid int) []StealStep {
	p = p.WithDefaults()
	nw := topo.Workers
	own := colorset.Of(nw, wid)
	plan := make([]StealStep, 0, NumStealTiers)
	batch := 0
	if p.Hierarchical {
		batch = StealBatch
		lo, hi := topo.SocketWorkers(wid)
		if hi-lo > 1 && hi-lo < nw {
			if p.Colored {
				socket := colorset.New(nw)
				for c := lo; c < hi; c++ {
					socket.Add(c)
				}
				plan = append(plan,
					StealStep{Tier: TierOwnColor, Lo: lo, Hi: hi, Filter: &own, Budget: socketTierBudget},
					StealStep{Tier: TierSocketColored, Lo: lo, Hi: hi, Filter: &socket, Budget: socketTierBudget})
			}
			plan = append(plan, StealStep{Tier: TierSocketRandom, Lo: lo, Hi: hi, Budget: socketTierBudget})
		}
	}
	if p.Colored {
		plan = append(plan, StealStep{Tier: TierGlobalColored, Hi: nw, Filter: &own, Budget: p.ColoredStealAttempts, Batch: batch})
	}
	return append(plan, StealStep{Tier: TierGlobalRandom, Hi: nw, Budget: 1, Batch: batch})
}

// FirstStealStep returns the step the enforced first colored steal probes:
// the plan's global colored step, unbatched. The plan must be a Colored
// one.
func FirstStealStep(plan []StealStep) StealStep {
	s := plan[len(plan)-2]
	s.Batch = 0
	return s
}
