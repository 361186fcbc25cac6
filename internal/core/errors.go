package core

import (
	"errors"
	"fmt"
)

// Sentinel failure classes. Every error the engine produces for a run
// wraps exactly one of these, so callers classify failures with errors.Is
// and recover diagnostics with errors.As against the typed errors below.
var (
	// ErrClosed is returned by Submit, SubmitCtx, Execute, and
	// ExecuteCtx once Close has begun.
	ErrClosed = errors.New("core: engine closed")

	// ErrCanceled classifies runs aborted by Ticket.Cancel or by a
	// SubmitCtx/ExecuteCtx context expiring. When a context caused the
	// abort, the returned error also wraps ctx.Err(), so
	// errors.Is(err, context.DeadlineExceeded) distinguishes deadlines
	// from explicit cancels.
	ErrCanceled = errors.New("core: graph canceled")

	// ErrStalled classifies runs failed by the stall sweep: the pool
	// went provably idle while the graph's sink had not computed (a
	// cycle or an unsatisfiable predecessor). The concrete error is a
	// *StallError carrying the pending-node diagnostics.
	ErrStalled = errors.New("core: graph stalled without computing its sink")

	// ErrComputeFailed classifies runs lost to a node whose compute
	// could not succeed: a recovered panic, or a FallibleSpec whose
	// ComputeErr kept failing until Options.Retry was exhausted. The
	// concrete error is a *ComputeError.
	ErrComputeFailed = errors.New("core: node compute failed")
)

// StallPendingMax bounds StallError.Pending: a stalled million-node
// graph should not turn its diagnostic into a million-entry slice. The
// full count is always reported in PendingTotal.
const StallPendingMax = 64

// StallError is the stall sweep's diagnostic: the run's sink never
// computed, and Pending lists the nodes that were created but never
// became ready — for a cycle, the cycle's members (plus everything
// downstream of them) are exactly this set. It unwraps to ErrStalled.
type StallError struct {
	GraphID uint64
	Sink    Key
	// Pending holds the created-but-never-computed node keys in
	// ascending order, truncated to StallPendingMax entries.
	Pending []Key
	// PendingTotal is the untruncated pending-node count.
	PendingTotal int
}

// NewStallError reports that graph id's sink never computed, pending
// being every node created but never computed, in ascending order. Both
// machines build their stall diagnostic here.
func NewStallError(id uint64, sink Key, pending []Key) *StallError {
	return &StallError{GraphID: id, Sink: sink, Pending: pending[:min(len(pending), StallPendingMax)], PendingTotal: len(pending)}
}

func (e *StallError) Error() string {
	if e.PendingTotal > len(e.Pending) {
		return fmt.Sprintf("core: graph %d stalled: sink %d never computed (%d nodes pending, first %d: %v)",
			e.GraphID, e.Sink, e.PendingTotal, len(e.Pending), e.Pending)
	}
	return fmt.Sprintf("core: graph %d stalled: sink %d never computed (pending nodes: %v)",
		e.GraphID, e.Sink, e.Pending)
}

// Unwrap ties StallError into the sentinel taxonomy:
// errors.Is(err, ErrStalled) holds for every stall failure.
func (e *StallError) Unwrap() error { return ErrStalled }

// ComputeError reports a node whose compute could not succeed, failing
// only the owning graph. Two paths produce it: a panic recovered at the
// engine's isolation boundary — a node's Compute (or a spec callback
// reached while processing the node: Predecessors, Color, Home,
// OnComplete) panicked — and a FallibleSpec whose ComputeErr still
// failed after Options.Retry was exhausted. Key is the node being
// processed. For a panic, Value is the recovered panic value and Stack
// the goroutine stack captured at the recovery point; for an exhausted
// retry budget, Err is the last error ComputeErr returned and Attempts
// the number of failed attempts (panics are never retried, so their
// Attempts is 0).
type ComputeError struct {
	GraphID  uint64
	Key      Key
	Value    any
	Stack    []byte
	Err      error
	Attempts int
}

func (e *ComputeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("core: graph %d: node %d failed after %d attempts: %v", e.GraphID, e.Key, e.Attempts, e.Err)
	}
	return fmt.Sprintf("core: graph %d: panic while processing node %d: %v", e.GraphID, e.Key, e.Value)
}

// Unwrap ties ComputeError into the sentinel taxonomy:
// errors.Is(err, ErrComputeFailed) holds for every compute failure, and
// when an exhausted retry budget carries the underlying compute error,
// errors.Is/As reach through to it as well.
func (e *ComputeError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrComputeFailed, e.Err}
	}
	return []error{ErrComputeFailed}
}

// cancelErr builds a run's cancellation error. The result matches
// errors.Is(err, ErrCanceled); when cause is non-nil (a ctx expiry) it
// additionally wraps cause, so deadline and explicit cancels stay
// distinguishable.
func cancelErr(id uint64, cause error) error {
	if cause == nil {
		return fmt.Errorf("graph %d: %w", id, ErrCanceled)
	}
	return fmt.Errorf("graph %d: %w: %w", id, ErrCanceled, cause)
}
