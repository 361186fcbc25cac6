package main

// calibrator is the benchmark-owned reference kernel: the classic "hold"
// loop of an event queue. Each step advances the minimum of a 4096-word
// binary heap by a xorshift-drawn increment and sifts it back down. It
// allocates nothing, touches 32 KB (stays in L1/L2), and mixes ALU work
// with data-dependent branches and loads, roughly the instruction mix of
// the simulator's event loop. Nothing in the repository calls it, so no
// change to the program can move it: it moves only when the host does.
type calibrator struct {
	heap [4096]uint64
	x    uint64
}

// calibIters is the number of hold steps in one calib op.
const calibIters = 8192

func newCalibrator(seed uint64) *calibrator {
	c := &calibrator{x: seed | 1}
	for i := range c.heap {
		c.x = xorshift(c.x)
		c.heap[i] = c.x >> 44
	}
	// Heapify so every op starts from a valid min-heap.
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
	return c
}

func (c *calibrator) siftDown(i int) {
	h := &c.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// op runs one fixed unit of calibration work and returns the heap root so
// the compiler cannot drop the loop.
func (c *calibrator) op() uint64 {
	for i := 0; i < calibIters; i++ {
		// Increments below 2^20 keep the sum far from overflow for any
		// run length, and keep the new key among the current ones, so
		// the sift depth stays near log2 of the heap size.
		c.x = xorshift(c.x)
		c.heap[0] += c.x >> 44
		c.siftDown(0)
	}
	return c.heap[0]
}
