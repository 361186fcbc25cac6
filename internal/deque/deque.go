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

// Queue is the owner/thief protocol shared by the deque implementations.
// PushBottom and PopBottom may be called only by the owning worker; the
// steal methods may be called by any worker concurrently. The engine holds
// a concrete *Mutex and does not use it: Queue is what lets one loop run
// the same probe over every substrate — the benchmark module's deque
// probes, the harness steal and alloc experiments, the root package's
// deque benchmarks, and this package's tests.
type Queue[T any] interface {
	// PushBottom adds an item at the bottom (owner only).
	PushBottom(e Entry[T])
	// PopBottom removes and returns the most recently pushed item
	// (owner only).
	PopBottom() (Entry[T], bool)
	// StealTop removes and returns the oldest item regardless of color.
	StealTop() (Entry[T], StealOutcome)
	// Steal is the one steal of the scheduler: it removes up to
	// min(ceil(n/2), max) of the oldest items (max <= 0 means uncapped,
	// max 1 is a single-item steal) and appends them to into, oldest
	// first, returning the extended slice; what into held is kept. With a
	// non-nil filter the oldest item must share a color with it, or the
	// steal reports StealMiss and takes nothing; the items behind it ride
	// along unchecked. The filter must have the entries' capacity (both
	// are sized to the worker count). StealOK means at least one item was
	// appended. Chase–Lev takes a batch one claim at a time and may stop
	// short; the block deque's claim unit is a block, so uncapped it may
	// take a whole sealed block, more than half.
	Steal(filter *colorset.Set, max int, into []Entry[T]) ([]Entry[T], StealOutcome)
	// Len returns the current number of items. It is advisory under
	// concurrency.
	Len() int
}
