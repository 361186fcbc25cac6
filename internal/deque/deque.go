package deque

import "nabbitc/internal/colorset"

// StealOutcome describes the result of a steal attempt.
type StealOutcome int

const (
	// StealOK: an item was stolen.
	StealOK StealOutcome = iota
	// StealEmpty: the victim deque had no items.
	StealEmpty
	// StealMiss: the victim's top item does not contain the thief's
	// color (colored steals only).
	StealMiss
	// StealAbort: the attempt lost a race and should be retried
	// elsewhere (lock-free implementation only).
	StealAbort
)

// String returns a short name for the outcome.
func (o StealOutcome) String() string {
	switch o {
	case StealOK:
		return "ok"
	case StealEmpty:
		return "empty"
	case StealMiss:
		return "miss"
	case StealAbort:
		return "abort"
	default:
		return "unknown"
	}
}

// cacheLine is the coherence granule the deque headers are padded to. A
// header is a small object whose words its owner rewrites on every push
// and pop, and the allocator packs same-sized objects side by side, so
// each implementation brackets its header with a line of padding: no two
// workers' deque headers can share a cache line wherever they land.
const cacheLine = 64

// batchSize returns how many items a steal-half takes from a deque of n
// items: half of it rounded up, capped at max (max <= 0 means uncapped).
func batchSize(n, max int) int {
	k := (n + 1) / 2
	if max > 0 && k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Entry is a deque element: a work item plus the set of task colors
// reachable inside it.
type Entry[T any] struct {
	Value  T
	Colors colorset.Set
}

// Queue is the owner/thief protocol shared by both deque implementations.
// PushBottom and PopBottom may be called only by the owning worker; all
// steal methods may be called by any worker concurrently.
type Queue[T any] interface {
	// PushBottom adds an item at the bottom (owner only).
	PushBottom(e Entry[T])
	// PopBottom removes and returns the most recently pushed item
	// (owner only).
	PopBottom() (Entry[T], bool)
	// StealTop removes and returns the oldest item regardless of color.
	StealTop() (Entry[T], StealOutcome)
	// StealTopColored removes the oldest item only if its color set
	// contains color.
	StealTopColored(color int) (Entry[T], StealOutcome)
	// StealTopMasked removes the oldest item only if its color set
	// intersects mask. The mask must have the same capacity as the
	// entries' color sets (both sides are sized to the worker count).
	// Hierarchical thieves pass their socket's color range so that any
	// task homed in their socket qualifies, not just their own color.
	StealTopMasked(mask colorset.Set) (Entry[T], StealOutcome)
	// StealHalf removes a batch of the oldest items in one visit — the
	// batched steal used on cross-socket victims to amortize remote-steal
	// latency. The baseline contract is up to min(ceil(n/2), max) items
	// (max <= 0 means uncapped); the returned slice is oldest first and
	// non-empty iff the outcome is StealOK. Implementations that cannot
	// take several items atomically (Chase–Lev) may take them one CAS at
	// a time under the single visit and return fewer than requested, and
	// block-granular implementations (Block) may instead take MORE than
	// ceil(n/2) — up to max, or a whole sealed block when uncapped —
	// because their claim unit is a block, not an item.
	StealHalf(max int) ([]Entry[T], StealOutcome)
	// StealHalfColored is StealHalf gated on the top item containing
	// color: if the victim's oldest item does not contain the thief's
	// color it reports StealMiss and takes nothing; otherwise it steals a
	// batch exactly as StealHalf does (later items in the batch need not
	// contain the color — once a colored steal has paid for the remote
	// visit, the rest of the batch rides along).
	StealHalfColored(color int, max int) ([]Entry[T], StealOutcome)
	// Len returns the current number of items. It is advisory under
	// concurrency.
	Len() int
	// SetWake installs a hook invoked after each PushBottom has published
	// its item — the engine's "work appeared" signal for waking parked
	// idle workers. Install before any concurrent use (nil clears it);
	// the hook must be cheap and must not touch the deque.
	SetWake(fn func())
	// Grows returns how many times the deque's buffer has grown since
	// construction — the growth-churn signal the engine sizes initial
	// capacities to eliminate. Owner-written; read it only when the owner
	// is quiescent (e.g. after a run).
	Grows() int64
}
