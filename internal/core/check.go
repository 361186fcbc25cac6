package core

import "fmt"

// dfsState marks progress of the cycle-detecting depth-first search.
type dfsState uint8

const (
	dfsWhite dfsState = iota // unvisited
	dfsGray                  // on the current DFS path
	dfsBlack                 // finished
)

// TopoOrder explores the graph from the sink through predecessor edges and
// returns every reachable task in a valid execution order (each task after
// all of its predecessors). It returns an error if the graph contains a
// dependence cycle, which would deadlock the scheduler. maxNodes bounds
// exploration (0 means unbounded) so that a malformed spec that generates
// keys endlessly fails fast instead of exhausting memory.
func TopoOrder(spec Spec, sink Key, maxNodes int) ([]Key, error) {
	state := make(map[Key]dfsState)
	var order []Key

	// Iterative DFS: each stack frame tracks how many predecessors have
	// been pushed so far.
	type frame struct {
		key  Key
		next int
	}
	stack := []frame{{key: sink}}
	state[sink] = dfsGray
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		preds := spec.Predecessors(f.key)
		if f.next < len(preds) {
			p := preds[f.next]
			f.next++
			switch state[p] {
			case dfsWhite:
				if maxNodes > 0 && len(state) >= maxNodes {
					return nil, fmt.Errorf("core: graph exceeds %d nodes", maxNodes)
				}
				state[p] = dfsGray
				stack = append(stack, frame{key: p})
			case dfsGray:
				return nil, fmt.Errorf("core: dependence cycle through task %d", p)
			}
			continue
		}
		state[f.key] = dfsBlack
		order = append(order, f.key)
		stack = stack[:len(stack)-1]
	}
	return order, nil
}

// RunSerial computes every task reachable from sink on the calling
// goroutine in dependence order and returns the number of tasks executed.
// It is the T1 baseline for speedup measurements and the reference
// executor for verifying parallel results.
func RunSerial(spec Spec, sink Key) (int, error) {
	order, err := TopoOrder(spec, sink, 0)
	if err != nil {
		return 0, err
	}
	for _, k := range order {
		spec.Compute(k)
	}
	return len(order), nil
}
