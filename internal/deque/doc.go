// Package deque implements work-stealing deques with per-item color tags.
//
// Workers push and pop work at the bottom (LIFO, preserving the depth-first
// execution order that work-first scheduling depends on) while thieves
// steal from the top (FIFO, taking the oldest — and in a depth-first
// execution, usually the largest — piece of available work).
//
// The NabbitC extension to the Cilk Plus runtime pairs the work deque with
// a "color deque": every stealable continuation carries a constant-size
// membership array of the colors occurring inside it, so a thief can test
// in O(1) whether a frame contains work of its preferred color before
// committing to a steal. Here each deque item carries a colorset.Set,
// which is the same structure without the parallel-array bookkeeping.
//
// Thieves have one steal, Steal(filter, max, into): it takes up to
// min(ceil(n/2), max) of the oldest items (max 1 is a single-item steal,
// which is what every in-socket probe of the scheduler makes; a batch is
// what a cross-socket probe of the hierarchical policy takes), gated on the
// oldest item sharing a color with filter (nil: any item; a thief's own
// color is a one-bit set, its socket a range of bits). The items behind the
// oldest ride along unchecked — once a colored steal has paid for the
// visit, the rest of the batch comes with it. Stolen items are appended to
// the thief's scratch slice, so a steal allocates nothing. StealTop, the
// unfiltered single-item steal, stays beside it for callers that want one
// entry by value.
//
// Three implementations share the Queue interface: Mutex (a Ring under a
// lock), ChaseLev (the classic dynamic circular work-stealing deque of
// Chase and Lev) and Block (a block-structured deque in the BWoS style).
// The engine holds a concrete *Mutex per worker and calls it directly;
// per-deque contention is a single owner plus occasional thieves, so an
// uncontended lock costs a couple of atomic operations, same as the
// lock-free path. The single-threaded simulator holds the same Ring
// without the lock, so both machines push, pop and steal through one ring
// and a simulated steal takes exactly the items a real one would. Two
// owner operations exist for the engine's lazy publication alone:
// Mutex.PushBeneath, which inserts an item beneath the k newest (the rest
// of a range the owner held, placed where eager splitting would have
// pushed it), and Mutex.OwnerLen, the owner's lock-free read of the length
// (its pushes less its pops, less the count thieves keep of what they
// took).
//
// ChaseLev and Block are probe-only. Forced into the engine, ChaseLev won
// none of the benchmark's four engine workloads against Mutex (10
// alternating 20 s pairs each on a 2-core host): it came closest on
// fine-grid, ahead in 8 of 10 pairs by a median 5 % that is inside
// Mutex's own run-to-run spread, while holding 5 % more live memory
// there and 21-29 % more on submit-lo and submit-hi. Its probed steals
// are slower and its drain rate about half of Mutex's. Block once
// handed out items twice (resetBlock zeroed a recycled block's commit
// count after bumping its epoch, so a thief could pair the new index word
// with the old count and claim a consumed slot; fixed, and
// TestConcurrentStress/block pins it), was the slowest substrate at
// push+pop, and the cross-socket batch it was built for never won a
// workload on a one-domain host. Both stay in the package only because the
// benchmark module's deque probes build them
// (benchmarks/nabbitperf/probes.go); they go, with shadow.go, in the same
// change that drops those probe rows.
//
// # Design note: unboxed Chase–Lev slots
//
// The scheduler's hottest operation is the owner's push, so the Chase–Lev
// buffer stores Entry values unboxed: steady-state pushes perform zero
// heap allocations, matching the original SPAA'05 design (a boxed *Entry
// slot scheme — the obvious way to make racy slot reads well-defined under
// the Go memory model — costs one allocation per push). Unboxed slots need
// an explicit discipline for when slot memory may be read and rewritten;
// the full rules live on the ChaseLev type, but the shape is:
//
//  1. Publication order. The owner writes the slot value, then bumps
//     bottom with a release store. A thief reads top before bottom, so
//     observing bottom > t guarantees the value for index t is complete.
//
//  2. Claim before read. A thief reads a slot value only after winning the
//     CAS on top. Top is monotonic, so a successful claim of index t
//     proves the slot still serves t: recycling a slot requires top to
//     have passed it, which would have made the CAS fail.
//
//  3. Guarded recycling. The owner overwrites a slot only when pushing
//     index b with b - top < size, which proves the previous tenant
//     (index b-size) was claimed. Because the claimant may still be
//     copying the value out, each slot carries an atomic reader count
//     held across the thief's recheck-claim-copy window; the owner's push
//     spins (a handful of instructions, bounded) until it drains.
//
//  4. Color shadows. A colored thief must inspect the top entry's color
//     mask before claiming, which rule 2 forbids for the value itself.
//     Each slot therefore keeps an atomically readable shadow of the
//     mask: two uint64 words covering colorset.InlineColors colors, with
//     a boxed-copy fallback for larger capacities. Shadow reads may be
//     stale; a stale "hit" dies on the claim CAS and a stale "miss"
//     re-validates top and reports StealAbort, never a false verdict.
//
// Every slot access is ordered by a bottom, top, or reader-count edge, so
// the protocol is race-free under the Go memory model (and under the race
// detector), not merely "benign". Batched steals remain sequences of
// single-element claims; see ChaseLev.Steal for why a multi-item CAS batch
// would be unsound against an owner popping inside the candidate range.
//
// # Design note: the block deque's single-CAS batch steal
//
// The Chase–Lev limitation above — a multi-item top CAS races an owner
// popping inside the candidate range, because PopBottom synchronizes
// through top only for the last element — is structural: on that layout,
// batched steals cost one CAS per stolen item forever. The Block
// substrate removes the limitation by changing the claim unit. Items live
// in fixed-size blocks (blockSize entries) chained oldest-to-newest; the
// owner pushes and pops only inside the unsealed tail block, sealing it
// when full. A sealed block can never see an owner pop, which is exactly
// the guarantee the multi-item claim was missing: thieves claim any
// remaining run of a sealed block with a single CAS.
//
// One atomic word per block (incarnation epoch | seal flag | steal
// index) makes that CAS self-validating: claims fail if the block was
// recycled (epoch), unsealed by an owner moving back into it (seal), or
// raced by another thief (steal index). Inside the unsealed tail block
// the owner and thieves run the ordinary Chase–Lev dance with commit as
// bottom and the steal index as top, so single-item steals and the
// last-item race are the proven protocol, just block-local. Blocks
// recycle through an owner-private free list (epoch bump, drain the
// per-block reader count, clear slots), so steady-state pushes allocate
// nothing and Grows() counts block-list growth exactly as Mutex counts
// buffer growth. Colored steals keep the slot shadow
// gate (rule 4) and add a per-block color summary — the owner ORs each
// pushed mask into two words, so a colored miss rejects a whole block in
// O(1) without touching any slot.
//
// The cost of block-granular claiming is victim order: a whole-block
// claim hands over up to blockSize items at once, so under concurrency
// the global steal order can differ from the per-item order Chase–Lev
// would produce. An uncapped Steal on a sealed block may also exceed the
// ceil(n/2) contract — the claim unit is the block. The argument above is
// the design, not a proof: it missed the resetBlock ordering bug above,
// which only the stress tests caught.
package deque
