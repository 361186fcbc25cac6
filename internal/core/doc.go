// Package core implements Nabbit and NabbitC: dynamic task-graph
// scheduling with optional locality-aware (colored) scheduling, the
// primary contribution of "Locality-Aware Dynamic Task Graph Scheduling"
// (Maglalang, Krishnamoorthy, Agrawal).
//
// A computation is a directed acyclic graph of tasks. Each task is named
// by a Key and declares the keys of its predecessors; the graph is
// explored on demand starting from a single sink task whose completion
// ends the computation. Nabbit executes the graph with randomized work
// stealing. NabbitC additionally lets the user assign each task a color —
// the identity of the worker whose memory holds the task's data — and
// biases scheduling so that workers preferentially execute tasks of their
// own color via morphing continuations and colored steals, while
// preserving Nabbit's asymptotic completion-time guarantees.
//
// The same graph state is driven by two engines: the real parallel engine
// in this package (Engine / Run), and the deterministic virtual-time
// machine in package sim used to reproduce the paper's 80-core
// experiments.
//
// # Design note: the persistent engine lifecycle
//
// The real engine is a long-lived object: NewEngine builds the worker
// pool (one goroutine per worker), the per-worker deques, and the first
// node table once; Close releases the workers. Between those, two entry
// points drive task graphs through the shared pool. Execute runs one
// graph with exclusive occupancy and full WorkerStats; Submit admits a
// graph into a multi-tenant stream and returns a Ticket whose Wait
// yields that graph's Stats. Run is the single-use composition of
// NewEngine + Execute + Close. Iterative workloads — PageRank power
// iterations, stencil time stepping — hold one Engine and Execute once
// per outer iteration, so every construction cost (goroutine spawn,
// deque buffers, the key records and node pages of the node table) is
// paid once and amortized; services with many independent small graphs
// Submit them concurrently and let workers interleave.
//
// Between graphs a node table must forget the previous occupant. It does
// this in O(1): the node state word reserves bits 3..30
// for an epoch stamp, every lifecycle transition preserves the stamp,
// and reset just takes the table a new stamp from the engine's clock — a
// slot stamped with any other epoch reads as absent, so there is no
// per-slot clearing loop (what happens when the 28-bit stamp wraps is
// the page pool's business; see the node-table note below). Successor-list
// backing arrays survive the same way: retirement leaves them in place,
// and they stay with their slot wherever its page goes next, so
// steady-state Execute and Submit cycles allocate only run bookkeeping
// (single-digit allocations), never per-node storage. An Execute of the
// sink the table has just served goes further and forgets nothing: it
// re-arms the last run's nodes where they lie, under the stamp they carry
// (see the replay note).
//
// # Design note: multi-tenancy — per-graph runs, tables, and admission
//
// Each admitted graph is a graphRun: an engine-unique id, its own node
// table instance, and its completion state (see "What a graph costs"
// below). A table resolves keys for one graph at a time, so concurrent
// graphs cannot share one — instead the engine keeps a pool of idle table
// instances under its state lock; admission checks one out (reset to a
// fresh stamp) and completion returns it. A table is little more than the
// list of pages it holds: the nodes themselves live in 64-node pages that
// every table of the engine draws from one page pool and hands back when
// its run ends, so what 128 graphs in flight cost is the pages their nodes
// fall in, not 128 copies of the key universe. The recycle point is safe
// by a scheduling invariant: when a run's sink computes, no deque can
// still hold an item of that run, because any such item would be feeding
// a join below the not-yet-computed sink. Every deque item carries its
// *graphRun, so workers are graph-oblivious: steals and pops interleave
// whatever mix of graphs is in flight, and a worker seeds a newly admitted
// graph from the pending queue on a fixed stride (seedStride) of local
// pops, which bounds how long a new graph waits behind a busy one.
//
// Admission is a count of slots, at most Options.MaxInflight, kept under
// stateMu, which admission and completion hold anyway. Submit waits for a
// slot: it queues a wake-up channel of its own, and a completion hands its
// slot straight to the oldest one. Execute uses the same slots — it blocks
// until it holds one, then waits for the engine to go quiet before taking
// exclusive occupancy, which is what entitles it to per-worker stats resets
// (and the lastGrows snapshot that keeps a failed run from corrupting the
// next run's DequeGrows deltas). A graph whose exploration dies without
// computing its sink (a dependency cycle) is detected by the last worker to
// park: if every worker is parked, nothing is pending, and no deque has
// work while runs are still registered, the stall sweep fails every
// registered run and releases its slot — the engine stays reusable,
// byte-identical to a fresh one.
//
// What a graph costs. Apart from its tasks, a Submit→Wait round trip
// pays for admission, seeding and completion, and nobody blocks in it
// when the waiter runs the graph itself or finds it done:
//
//	per graph             now                      before
//	allocations           1: the run, 320 B        1: the run, 352 B
//	  a 2-colour spawn    none (the spawn slab)    none
//	channel operations    2: pending send, receive 2
//	clock reads           2 monotonic: admission,  2, the admission's also
//	                        Elapsed                  a wall-clock read
//	timer sets            about once a firing      1: each idle admission
//	deque pushes, cone    1.6: the colour group    4.3: and three halves
//	park re-check, wakes  a flag per deque         a lock per deque
//	stateMu sections      2: admission, completion 2
//	one-node graph        1.33 µs                  1.73 µs
//	17-node cone          7.68 µs                  8.71 µs
//
// The right-hand column is the design this one replaced (a timer reset
// per idle admission, one-colour halves published into an empty deque
// under the deferred wake, the deques' lengths read under their locks, a
// deferred publish per created node), measured the same way:
// BenchmarkSubmitWaitNode1 (a one-node graph, 2 workers) and
// BenchmarkSubmitWaitCone17 (the 17-node cone, whose sink spawns two colour
// groups), medians of 6 alternating rounds of 200 000 graphs on a 2-vCPU
// VM, go1.24; the per-round ratio is 0.74 for the one-node graph (every
// round better) and 0.86 for the cone (5 of 6). A clock read costs about
// 60 ns there, and the two left are a tenth of a one-node graph's CPU
// profile; time.(*Timer).Reset, 5.7 % of it before, no longer shows, and
// the park re-check's anyWork fell from 6.3 % to 0.5 %. Of a cone's 1.2 to
// 1.9 pushes in those rounds one is its colour group; the rest come from
// graphs whose deferral was retired before they finished, which publish
// as before. The run carries its Ticket and
// Stats. The slot count and the settled bit (runSettled) live under stateMu
// inside the two sections a graph takes anyway; a done channel is made
// there only for a caller that sleeps on the run (a Wait that cannot run
// it, Done, a ctx watcher, Execute), which then costs one more section, an
// allocation and the close and receive. A grouping and its permuted keys
// are cut from the run's node table (spawnSlab), which keeps the blocks for
// its next run. pending stays a channel: it is the hand-off to the workers,
// which poll its length without a lock.
//
// # Design note: the parking protocol
//
// Idle workers do not spin indefinitely. Each worker carries a notify
// slot: an atomic parkState flag plus a one-token channel. A worker that
// completes spinBeforePark unsuccessful probe sweeps parks: it announces
// parkState (and the global parked count), re-checks its wake condition
// (shutdown / pending submissions / any deque non-empty),
// and only then blocks on the channel. A waker CASes parkState
// parked→running and, on winning, decrements the parked count and sends
// exactly one token; losing the CAS means someone else owns the wake.
// Announce-then-recheck on one side and publish-then-scan on the other
// make the classic Dekker argument: a producer either observes the parked
// announcement (and delivers a token) or published its work before the
// recheck (and the park is abandoned) — no lost wakeups, which the
// race-stress test pins. The re-check reads each deque's non-empty flag
// (deque.Mutex.NonEmpty) instead of taking its lock: a push that takes a
// deque from empty stores the flag under the lock, before it reads parked,
// so the flag store and the announcement are the two sequentially
// consistent stores of the Dekker pair (a push onto a non-empty deque
// stores nothing; the flag already says so). Only the quiet state takes
// each lock for an exact length (quietLocked). Decrementing parked on the
// waker side (not when the sleeper resumes) keeps the quiet-state reading
// exact: parked == workers implies no wake token is in flight.
//
// Who owes which wake. Producers do not wake on every push. The engine
// keeps a searching count (Engine.searching, beside parked): one for each
// worker that has run out of local work and is hunting, one for each wake
// from the instant its waker wins the CAS until the woken worker finds
// work or parks again. Every wake for published work is decided in one
// function, Engine.signal: a producer — a deque push, an admission —
// wakes a parked worker only if it reads the count zero (and the
// deferred wake below not armed); otherwise whoever holds a count owes
// the next wake, and pays it when the count is given up:
//
//   - A searcher that finds work by stealing and was the last one
//     searching wakes another worker (the victim pushed those items
//     earlier, so no push is coming to signal for the rest); one that
//     finds work by seeding a pending graph does so only if more work is
//     visible — the graph it seeds signals for
//     itself with its first push.
//   - A searcher that gives up parks: it drops its count first, announces,
//     and the full re-check covers whatever a producer left to it.
//   - At most max(1, P/2) workers search at once. A worker that runs dry
//     while that many already hold a count does not hunt: it yields its P
//     a few times (yieldBeforePark), polling the pending queue in
//     between, then parks, re-checking only for shutdown — the
//     searchers, not it, answer for what is there.
//
// This is the Go runtime's spinning-M rule, and the same argument carries
// it: every hand-over is "publish, then read the count" against "drop the
// count, then look", so some party always sees the other.
//
// Caller-run Wait. A goroutine in Ticket.Wait whose run is still live does
// not sleep if a worker is parked: it wins that worker's parkState CAS as
// a waker would but sends no token, so the worker's goroutine stays asleep
// on its channel, and runs the worker's loop itself (worker.loop — the
// one loop, with a second exit) on the worker's deque, rng, grouping
// scratch and page stripe, each item inside the usual rescue boundary. To
// the stall sweep, lockQuiet, table reclaim and Close the worker is
// simply running. The guest leaves when its run completes or where the
// worker would park, and hands the worker back by performing the park
// announcement on the sleeping goroutine's behalf (worker.handBack):
// announce, run the stall-sweep check, re-check shutdown / pending /
// deques, and — where the goroutine itself would have abandoned
// the park — wake it through the ordinary CAS, which a concurrent waker
// may win instead. Either way exactly one token follows an announcement
// that needed one. The run is re-checked between winning the CAS and
// touching the worker: a live run keeps the engine from going quiet, and
// Execute resets worker state only in the quiet state; a worker won for a
// run that completed in between is announced parked again untouched.
// Runs admitted with a ctx are never run this way: their Wait must return
// once the ctx expires, even while a Compute is still stuck. Execute keeps
// waking a worker and sleeping on the run — measured on the coarse
// kernels, running the graph from Execute bought nothing once the wake was
// no longer wasted.
//
// The deferred wake. Borrowing alone gains nothing if admission has
// already woken a worker (60-200 us away, by which time a small graph is
// done and the worker spins against the next one). So a Submit into a
// fully idle engine — every worker parked, no other graph in flight, a
// run its waiter may run — does not wake: it publishes a deadline
// deferDelay ahead in a word of its own, Engine.deferUntil, and while that
// word is non-zero signal wakes nobody. There is one way to retire it,
// Engine.wakeNow: store zero, then look at the queues and signal if
// anything waits. Who calls it:
//
//   - every producer that is not the idle engine's own admission: an
//     admission into an engine with a graph in flight or a worker awake, or
//     a ctx run;
//   - everybody about to sleep on the engine instead of running its graphs:
//     Ticket.Done, a Wait that found nobody to borrow, Execute's and Close's
//     quiesce;
//   - whoever finds the deadline passed: a running worker (or guest) at its
//     stride poll, which is how a graph that outlives the delay gets its
//     second worker, and the deferral's timer.
//
// A hand-back retires nothing: the next idle admission moves the deadline,
// and any other calls wakeNow. The deferral carries no count and
// its retirement is a plain store, so retirements may race each other and
// an arming admission freely. What keeps a graph from being lost is two
// orders. Arming happens under stateMu after the graph is published, and
// wakeNow stores before it looks, so whoever wipes a deadline sees the
// graph it stood for; a producer's signal reads the word after its push, so
// either it sees the word cleared or the retirer's look sees the push. And
// every arming looks at the timer after its deadline is visible
// (Engine.armTimer): it sets the timer unless a firing is pending, and a
// firing clears that flag (timerSet) before it reads the deadline, so a
// pending firing reads this deadline or a later one, and one that finds
// the deadline still ahead sets the timer again for the remainder. So no
// armed deferral is ever without a pending timer: liveness rests on the
// timer alone, and a caller of wakeNow that is missing costs a delay, not
// a hang. The timer is not pushed along by each admission: in a
// Submit-then-Wait loop it fires about once a millisecond, and is set
// about once per firing rather than once per graph. The delay a missing
// wakeNow costs is the contract for a Submit into an idle engine
// that nobody waits on, asks Done of, or follows with other engine work:
// the Go runtime serves the timers of an all-idle process from a netpoll
// sleep of 1 ms granularity, so such a graph starts after 1.0-1.6 ms
// (BenchmarkSubmitNeverWaited; an immediate wake took 9-190 us), not after
// deferDelay. A caller that will not Wait asks for the wake with Done.
//
// Wake sources, then: signal — from a deque push, from the last searcher
// to find work, from wakeNow — when nobody is searching and no deferral is
// armed; a hand-back whose re-check found work; Execute's own admission
// into the quiet engine; Close, which wakes everyone. Every park unwinds to the worker's loop before hunting again,
// so each wake re-polls the pending queue and re-runs first-steal
// enforcement. The all-parked state doubles as the engine's quiescence
// barrier — Execute takes occupancy and gathers stats only when every
// worker is parked and nothing can wake one (quietLocked: no pending graph,
// no deque work), which is what makes resetting per-worker
// stats race-free without locking the hot paths; the same predicate gates
// the stall sweep above. Parks, Wakes, and SpinRounds are reported per worker
// in WorkerStats (a tenancy is neither a park nor a wake); a worker no
// run needed is never woken and records none.
//
// # Design note: the steal plan
//
// The victim order is data, written once: StealPlan turns a Policy, the
// topology and a worker id into steps — tier, victim range, colour filter,
// budget, cross-socket batch — and both machines walk that list. The
// engine's hunt is one loop over it, a sweep per pass, starting at the top
// on every hunt; the simulator makes one probe per event and keeps its
// place in a phase counter. A probe draws a victim from the step's range
// (StealStep.Victim) and calls the deque's one Steal with the step's
// filter, taking a batch only from a cross-socket victim of a batching
// step. The enforced first colored steal probes the plan's global colored
// step, unbatched (FirstStealStep), until it steals or reaches
// Policy.FirstStealLimit. Both machines also count in one vocabulary: their
// per-worker records embed one counter block, Counters, every probe is
// recorded by its one recorder (Counters.Probe, Counters.FirstSteal), and
// every aggregate — totals, remote share, tier anatomy, the shared part of
// Metrics — is written once, on PerWorker, which Stats and sim.Result
// embed. The one rule the machines do not share is written where it lives: a flat
// colored hit in the simulator keeps its place in the sweep instead of
// starting over (TestFlatColoredHitKeepsSweep), a divergence kept because
// fixing it changes the pinned schedules.
//
// # Design note: morphing continuations and lazy publication
//
// A spawn is interpreted as the paper's spawn_colors/spawn_nodes recursion
// (see item.go): spawn_colors pushes the half of the colour groups that
// does not hold the worker's colour (KeepHalf) and descends into the
// other, until one colour group is left; spawn_nodes then splits that
// group's range of keys. In NabbitC every split is a Cilk spawn, whose
// push costs a few stores; here every push and every pop takes the
// deque's lock, and a 17-node cone on an idle engine pushed 15 halves that
// the same goroutine popped straight back. So the engine publishes a
// one-colour half only when a thief can use it, as lazy binary splitting
// (Tzannes et al., PPoPP 2010) and lazy task creation (Mohr, Kranz and
// Halstead, 1991) do. A worker runs a range's keys in order, pushing
// nothing, while all three of these hold (runGroup):
//
//   - its deque already holds stealable work (Mutex.OwnerLen, a lock-free
//     read for the owner), or the deferred wake (above) is armed;
//   - no worker is hungry: none is searching, and none is parked unless
//     the deferred wake holds it back — exactly the cases in which a push
//     would feed a hunter or wake a sleeper;
//   - every key resolved so far was flat: it ran at most one task and
//     opened no range of its own.
//
// Without a deferral, a worker whose deque is empty still publishes the
// upper half before it runs a key, so there is always something to steal
// while it works. Under an armed deferral there is nobody to steal it: the
// other workers are parked and signal wakes none of them. A thief can
// appear only through wakeNow, which clears the deferral before it looks,
// or through a wake that takes a searching count (a hand-back's re-check,
// Close's wakeAll), and the hunger test sees either at the next leaf
// boundary. So a waiter that runs its own graph on an idle engine pushes
// only KeepHalf's colour groups. Execute and ctx runs never arm the
// deferral, so their splitting is as before. The conditions are read at
// each leaf boundary; at the first one where one fails, the rest of the
// range is published as eager splitting would have left it after that key —
// the right siblings on the key's path through the range's split tree,
// largest first — and the worker returns to its loop. The fairness stride
// (seedStride) and a guest whose run has completed end a held range the
// same way, and the rest of a run that is no longer live is dropped.
// KeepHalf's colour-group pushes stay eager, so what a colored steal can
// see does not change.
//
// On one worker the engine completes tasks in exactly eager splitting's
// order. A flat key pushes nothing, so holding the keys before it left
// the deque as eager splitting would have, less the siblings not yet
// published; those go beneath whatever the key that ended the hold pushed
// (Mutex.PushBeneath, beneath as many entries as it pushed, clamped to
// the length since thieves take only the oldest), which is where eager
// splitting had them. The pops that follow are then the same pops. The
// simulator keeps eager splitting, whose pushes its cost model charges
// nothing for, and TestEngineAndSimulatorAgree (internal/sim) pins the
// equality on the Table I models; pushing the rest above the key's items
// instead, or dropping the flatness test, fails it.
//
// A thief sees the rest of a held range only at a leaf boundary. A
// Compute that waits for a sibling leaf therefore waits for its own
// worker — but such a wait is a dependence the spec does not declare,
// which the DAG contract (Spec.Predecessors) already rules out. A Compute
// that hangs keeps the rest of a held range in its worker's locals, but
// nothing could run that rest to any end: the run cannot complete without
// the hung key, and its context deadline fails it whole (see the note on
// the run's deadline below). WorkerStats.Pushes counts what each worker
// put on its deque.
//
// Measured on a 2-core x86 VM (go1.24.0), eager against lazy in
// alternating runs: BenchmarkSubmitWaitCone17 (a 17-node cone per
// Submit→Wait, 2 workers) went from 15 to 4.2 pushes and from 8.6 to
// 7.1 µs per graph; BenchmarkExecutePerTask discover-1w from 0.98 to 0.03
// pushes per task (261 → 228 ns in its cleanest set), with the replay
// rows and discover-2w (0.99 → 0.30 pushes) within noise. The
// benchmark's submit-lo workload rose from 0.331 to 0.376 speedup_vs_ref
// at seed 1 and from 0.326 to 0.371 at seed 5 (ten 20 s pairs each, every
// pair won), lat_x_p50 2.86 → 2.49; submit-hi rose by about 9 %, and
// coarse-kernels and fine-grid, where keys are rarely flat, did not move
// beyond their run-to-run spread.
//
// Holding under the deferred wake as well, measured the same way against
// publishing into an empty deque: BenchmarkSubmitWaitCone17 went from 4.3
// to 1.6 pushes and from 8.7 to 7.7 µs per graph (with the timer,
// anyWork and fill changes of the cost table above), and submit-lo rose
// from 0.391 to 0.435 speedup_vs_ref at seed 1 and from 0.388 to 0.433 at
// seed 7 (ten 20 s pairs each, every pair won), lat_x_p50 2.37 → 2.13 and
// lat_x_p90 2.73 → 2.48. fine-grid, coarse-kernels, submit-hi and
// sim-table1 never arm the deferral; their speedup_vs_ref and latencies
// stayed within their run-to-run spread. The deferral's words sit on a
// cache line of their own (Engine.deferUntil): read beside the admission
// counters, which every Submit and completion writes, the hold test cost
// submit-hi 3.5 %, and reading the searching count first cost fine-grid
// about 4 %.
//
// # Design note: the node lifecycle word
//
// Every Node carries one atomic state word encoding its lifecycle phase
// plus a successor-list claim bit. The phases are monotonic (a replayed
// run, which only notifies, leaves every node computed; see the replay
// note):
//
//	absent ──CAS──▶ initializing ──store──▶ ready ──store──▶ computed
//
// In detail:
//
//   - absent: the slot exists but no worker has named the key yet.
//   - initializing: exactly one worker won the CAS from absent and is
//     filling in the predecessor list and join counter. Losers of the CAS
//     spin (briefly — Predecessors is cheap by Spec contract) until the
//     ready store publishes the fields; the atomic load/store pair gives
//     the required happens-before edge.
//   - ready: the node is fully initialized. Predecessor accounting runs:
//     successors register via addSuccessor (append under the claim bit)
//     and predecessors decrement the join counter. The worker whose
//     decrement reaches zero computes the node.
//   - computed: retire published the computed phase with one CAS from an
//     unlocked word;
//     from that instant addSuccessor refuses new registrations and the
//     successor list belongs to the retiring worker alone, so every
//     successor is notified exactly once.
//
// The claim bit (succLockBit) is a short CAS-acquired spin lock guarding
// appends to the successor list — held across one append, never across a
// spec call. It replaces the per-node sync.Mutex the
// addSuccessor/retire handshake once took: the uncontended cost of
// an append is one CAS + one store, there is no futex slow path, and
// folding it into the lifecycle word lets one load answer "computed?" on
// the scan fast path. Retirement never takes the bit at all: a CAS that
// succeeds from an unlocked word proves no append is in flight, and the
// computed phase it installs keeps every later one out.
//
// # Design note: cache-line ownership and the per-task budget
//
// A ~100 ns task leaves the scheduler a few hundred cycles, and most of
// what it used to spend was the memory system fighting itself: two
// workers' scratch words on one line, a shared counter beside fields every
// lookup reads, a division per ring index, 144-byte deque entries copied
// eight times per push/pop pair. The per-task path is laid out under one
// rule: every word a worker writes per task lives either in the node being
// processed or in that worker's own cache-line-isolated block, and what is
// copied per push/pop fits in two lines.
//
// Node-owned. A Node is exactly one 64-byte line (slices as bare data
// pointers with int32 lengths, int32 colour/home), and every page of the
// node table is line-aligned, so creating a task, registering
// a successor, counting down its join, computing and draining it touch one
// line. Two summaries are folded into the node at creation, from the key
// records its predecessors' lookups are about to read anyway: predColor (the
// colour all predecessors share, if they do) makes grouping a
// single-coloured predecessor list O(1) with no per-edge Color call, and
// predDomain (the NUMA domain all their homes lie in) turns the paper's
// per-predecessor locality accounting into one comparison — no HomeSpec
// type assertion and call per edge, and no read of a predecessor's line
// after another worker has written it. Only a node whose predecessors
// straddle colours or domains looks each one up, in the engine's key
// records (for a key without one, the spec).
//
// Worker-owned. The rng state, WorkerStats, the grouping scratch (its
// small buffers inline, its colour table bracketed by a line of slack),
// and the loop counters sit in the worker struct between two lines of
// padding; the words other goroutines write (the park handshake) come
// after a third. Deque headers are padded the same way
// by internal/deque. What a worker writes to a node table per creation
// — its creation count — is striped per worker, a line apart, in storage
// of its own: nodeArena.getOrCreate takes the worker id, the stripe is a
// plain increment, count() reads the stripes once the run's completion has
// ordered every write before the reader, and reset clears the counts with
// the stamp. A counter shared by the workers sits on a line every one of
// them writes: the single creation counter of old invalidated the line
// every lookup reads. What a table writes per installed page — its
// install lock, its list of pages, the chain through its directory — is
// shared, but a line away from the fields every lookup reads, and written
// once per page, not per node. The page pool follows the
// same rule: each worker pushes and pops a private stack of pages, and
// trades half a stack at a time with the locked shared list.
//
// What a table owns and what the engine shares:
//
//	per table    about 0.5 KB inline: an install lock and a list of its
//	             first eight pages, stamp, era and last sink; one stripe
//	             per worker (creation count); once a graph installs a
//	             ninth page, a directory for life (16 bytes per 64 slots
//	             of the bound, or a radix tree of them; see the
//	             node-table note)
//	per engine   key records on the specView (slot, colour; homes only
//	             for a HomeSpec) — 8 bytes a key, read-only, one line
//	             serves a key's lookup, its fill and the summary of its
//	             neighbouring predecessors; the page pool (slabs,
//	             per-worker stacks, shared list); the stamp clock
//	in flight    pages: 64 nodes, 4 KB, line-aligned, under exactly one
//	             table's directory or in the pool
//
// Engine read-mostly. What the per-task path reads from the Engine — the
// spec and its resolved faces, the colour → domain table, the policy
// flags, OnComplete, the worker slice, the close flags — forms the head of
// the struct and is never written while graphs run. The words that are
// (parked, read by every push; the admission state; the deferred wake)
// follow, each group at least a line from that block, from each other and
// from the end of the struct.
//
// Copied per push/pop. A deque item owns no storage: it is an index range
// into the owner node's predecessor keys or into the ready successors the
// retiring worker moved to the front of the owner's successor array, plus
// one colour (a *grouping only when the work spans colours). item is 40
// bytes, colorset.Set 32, deque.Entry[item] 72 — down from 96, 48, 144 —
// and the notify path no longer allocates a node slice per spawn. The
// mutex deque's ring is a power of two indexed with a mask.
//
// Locked read-modify-writes (amd64: CAS, XADD, and XCHG — every atomic
// Store) for an interior task of a two-predecessor, two-successor graph,
// before → after:
//
//	per node   create: claim CAS, join Store, created Add, ready Store   4 → 2
//	           (join and the stripe are plain writes the ready store
//	           publishes)
//	           retire: claim-bit CAS + computed Store → one CAS           2 → 1
//	per edge   discovery edge: addSuccessor's CAS + Store → the creator
//	           appends before publishing                                  2 → 0
//	           later edge to a ready node: CAS + Store                    2 → 2
//	           later edge to a computed node: CAS + Store + join Add →
//	           refused on the load, join Add                              3 → 1
//	           notification: join Add                                     1 → 1
//	deque      push + pop under the mutex                                 4 → 4
//
// With one discovery edge and one later edge in, two notifications, and
// one push/pop pair, that is 16 → 11: seven on the node's own line, four
// on the worker's own deque header, none on anything shared beyond the
// two nodes an edge joins.
//
// # Design note: one node table, two slot rules
//
// The paper asks of the node store nothing but an atomic create-or-get,
// whatever the key space, and the engine has one: nodeArena, a table of
// 64-node pages. A table is empty at checkout; the first worker to name a
// key in a page's range takes a page from the engine-wide pool and
// installs it, and getOrCreate is then a look-up of the page and one
// atomic load of the slot's state word (lookup) or one CAS (create): no
// hashing, no locks on the way, no per-node allocation. Nabbit creates
// nodes on demand, and so does the table its storage: a 17-node graph out
// of a million-key universe costs the two or three pages its keys fall in,
// and the table that holds them a list of eight page numbers, whatever
// the bound. Page pool, epoch stamps, hand-back and replay are one
// mechanism for every spec. What differs is how a key finds its slot
// (slotOf):
//
//   - Indexed. A spec that declares a bound of at most 2^21 keys
//     (BoundedSpec / FuncSpec.BoundFn) gets a record per key, built once
//     per engine, assigning slots home-major: tasks whose data lives at
//     the same color sit contiguously, so a worker sweeping its own
//     color's tasks walks dense memory — the paper's assumption that task
//     data clusters at its home color, applied to the scheduler's own
//     metadata. indexKeys lays the records out in place, two passes over
//     them with a count per home between, so construction costs one
//     Color (and Home) call and 8 bytes a key (12 with a HomeSpec), and no
//     scratch array. A directory is one flat leaf of a page per 64 slots
//     of the bound, so a lookup is a record load, the directory entry (or
//     a scan of the list) and the state word. A key outside the declared
//     bound is a spec error, reported as such. All benchmark workloads
//     (stencil grids, CSR blocks, wavefronts) declare bounds.
//   - Raw. Any other key — no bound, or a bound past 2^21 — is its own
//     slot: index k&63 of page k>>6, the page number zigzag-folded so that
//     keys of small magnitude, negative or not, stay shallow. Page numbers
//     index a radix tree in the shape of the Go runtime's heap-arena map
//     once the table outgrows its list: 64-way levels, added by the
//     install path the first time a page number under them is named and
//     never freed while the table lives, the root grown upwards by a new
//     level whose child 0 is the old root. The first 64 pages (keys
//     -2048..2047) answer from the first leaf without a walk; page
//     numbers past it cost one load per level, up to ten for keys near
//     ±2^63. Colour and home come from the spec at fill.
//     Creating a raw key costs ~48 ns and looking one up ~9 ns against
//     ~240 ns and ~26 ns in the sharded RWMutex map this table replaced
//     (BenchmarkGetOrCreate/GetOrCreateLookup, 2-CPU Xeon VM; indexed keys
//     ~45 ns and ~4.4 ns), and raw-key graphs replay like indexed ones.
//
// One install path. Every page a table gets goes through install, under a
// lock of the table's own: it asks again whether the page is there, takes
// one from the pool, and records it. The first eight go in a list inline
// in the table, published by a count that a lookup reads before it scans
// the page numbers; the lock is a bit in the count's word, so the store
// that releases it publishes the page, and a page costs two locked
// operations. The ninth page makes the directory (outgrow) — an indexed
// table's one allocation in its life, a raw-key table's first leaf —
// copies the listed pages into it, and only then publishes it, so a
// lookup that sees the directory reads nothing else; every later page goes
// under its directory entry, and the entries chain the installed page
// numbers for release. A table keeps its
// directory across runs, emptied, as it keeps its pages for a repeat. The
// lock is taken once per page, never per node, and sits a line away from
// the fields a lookup reads. Lookups take no lock: a racer that looked
// too early finds the page on its own way through install.
//
// The memory trade. A page is 4 KB whichever rule placed its keys, so a
// key space the graph fills densely costs its 64 B a node, and a sparse
// one costs a page per touched 64-key block: 4 183 B per node when every
// key falls in a block of its own (BenchmarkGetOrCreateScattered
// stride-64, directory levels and slab included), 7 191 B when the keys
// are 2^40 apart and each also needs interior levels of its own
// (stride-2^40) — against the 138 B a node cost the map. A spec whose
// keys are hashes pays that; one that can number its tasks densely
// should, and declaring the bound buys it the home-major layout too.
//
// The simulator mirrors the one table with the same page geometry and
// schedules that do not depend on whether a spec declares its bound
// (TestQuickHiddenBoundScheduleIdentity in internal/sim).
//
// The install path is the only writer of a table's list, directory levels
// and root, so the protocol a racer must get right is the lock-free
// lookup's: a list entry is written before the count that covers it, a
// directory is whole before it is published, and a level before the entry
// or root that names it. TestArenaGetOrCreateRace's rows cross the
// list-to-directory copy and the tree's growth under eight racers; they
// are a target for a deterministic interleaving explorer once the
// repository has one.
//
// Handing pages back. The worker that completes a run (finishRun) gives
// the table's pages back to the pool before the table itself goes back
// on the idle list, so the engine's node memory follows the nodes in
// flight. That is safe at exactly that point for the reason the table
// hand-back always was — a computed sink means no item of the run is left
// in any deque — plus two rules for the stragglers the flat arena used to
// forgive. A worker reads nothing of a node after its own last join
// decrement on that node's successors: the decrement may be what lets
// another worker compute the sink, finish the run and recycle the page
// (computeAndNotify decides sink-ness from the key it read on entry).
// And no goroutine outside a run's workers reads its nodes at all. Failed
// runs keep their pages with their quarantined table until a proven-quiet
// point.
//
// One exception keeps an iterative workload from paying for this: a
// table on its first run, asked for the same sink as the run before, or
// checked out by Execute keeps its pages, and reset hands them back if the
// next graph turns out to be another one. An Execute loop therefore finds
// every node where it left it — line, successor array and all — from the
// second run of a sink on, however often it has switched sinks before,
// while a stream of different Submitted graphs hands back at every finish.
//
// The pool itself grows a slab at a time while graphs are in flight and
// falls back to a fixed few slabs when the last of them finishes
// (pagePool.trim, inside the same stateMu section): how many graphs were
// seeded but unfinished at once is a matter of timing, and an idle engine
// should not carry the high-water mark of its worst moment.
//
// Stamps and the wrap rule. Stamps come from one engine-wide clock that
// counts table checkouts: the stamp is the count modulo 2^28 and the era
// is the quotient. Within an era no two tables have the same stamp, so a
// page still carrying another run's words reads as empty to its next
// table without anyone clearing it. Across eras a stamp can repeat, so no
// page crosses an era boundary with its words intact: tables, workers'
// stacks and the shared list are each tagged with the era their pages'
// words belong to, a page moving between two whose tags differ is
// cleared on the way (64 stores), and a stack or list asked for a page of
// a later era sweeps what it holds once and adopts that era. A table
// checked out before a wrap and still running after it keeps drawing and
// returning pages under its own era, at the price of a clear each way.
//
// # Design note: replay
//
// NabbitC inherits Nabbit's dynamic variant: every node is created on
// demand from the sink. The original Nabbit also has a static variant for
// graphs whose shape is known up front, and after one Execute the engine
// knows exactly that. The table kept its pages (above), so every node's
// predecessor list and in-degree, and most of its successor list, survived
// the run; discovering them again costs an interior wavefront task two
// spec callbacks, a creation CAS, two edge registrations and a predecessor
// item through the deque — about three quarters of what the scheduler
// spends on it. A repeat Execute therefore replays the last run instead:
// nodeArena.reset, finding itself eligible, makes one pass over the table's
// pages (rearm) that puts the join count of every node the last run
// computed back at its in-degree and hangs the nodes without predecessors
// on a table-owned root node as its successor list. The pass writes no
// lifecycle word, and the replay keeps the last run's stamp: every node
// reads computed from the start of the run to its end, and nothing in a
// replayed run asks its phase — no node is looked up, no edge registered —
// while retire's CAS does not look at it.
// worker.seed roots the run with a successor-work item over that root
// instead of creating the sink, and from there the run is the notify
// cascade that exists anyway — computeAndNotify, decJoin, groupNodes, the
// deque — from the sources up to the sink, whose completion finishes the
// run as ever. No node is created, no edge registered, no predecessor item
// pushed; none of the per-task functions knows it is replaying. Stats
// reports the run as Replayed, with NodesCreated the number re-armed.
//
// Eligibility. All of: the table is checked out by Execute (below); the
// sink is the one it served last, so it still holds that run's pages; that
// run ended at its sink through finishRun (release is told, and a failed,
// canceled or stalled run's table comes
// back through quarantine, which tells it the opposite); and the spec has
// not been caught returning a different slice (next paragraph). Everything
// else discovers, exactly as before: every first run, every Submit, the run
// after a failure, a changed sink. Only a discovery takes a stamp from the
// engine's clock, so a table may replay across a wrap of it, under the era
// tag it was checked out with (the node-table note).
//
// The identity check, and what it cannot see. The pass calls Predecessors
// once per node, on the goroutine calling Execute, and requires the very
// slice the node recorded — same array, same length. That is the whole
// test that the graph has not changed shape, and it is exact under one
// rule, now part of the Spec contract: a spec never rewrites a slice it
// has returned. A spec that rewrote one in place between runs would be
// replayed with the old edges' join counts and successor lists and the new
// keys' values — not detected, therefore forbidden. A spec that builds a
// new slice per call is fine: the first node with predecessors fails the
// check, so such a spec pays for one short pass per Execute — and one
// that swapped a slice once replays again from the run after the
// discovery that recorded the new slice. A
// Predecessors that panics aborts the pass too; the discovery run meets
// the same panic inside a worker's rescue boundary, where it fails the
// graph with the usual *ComputeError.
//
// Successor lists are rebuilt once per streak. After a discovery run a
// node's list holds only the successors that registered before it
// computed; an edge whose predecessor had already computed was accounted
// on the spot (tryInitCompute) and never listed, and which edges those are
// depends on the schedule. So the first pass after a discovery run rebuilds
// every list from the predecessor lists — each edge once, duplicates
// twice, successors in slot order (listing a wavefront node's row
// neighbour before its column neighbour is the serial walk's order; the
// reverse order costs a 256x256 run a fifth more on one worker and a third
// more on two) — after sorting the table's pages into one list. Later passes of the streak find the lists
// whole, because a run no longer consumes them: retire leaves the length
// alone (creation resets it) and computeAndNotify moves the ready
// successors to the front by swapping, so a list is permuted from run to
// run but never shortened. On one worker the schedule is still a function
// of the engine's history (TestRepeatedExecuteDeterminism), and a fan-in
// replays in the order it was discovered in.
//
// Why only under Execute. The pass is single-threaded, linear in the
// graph (box figures: 12-17 ns a node, 0.82-1.11 ms of a ~10 ms 256x256
// fine-grid Execute whose first_work_us.fine reads 1 040-1 085 us; counted
// in Elapsed) and writes join counts — and, on a streak's first pass,
// successor lists — with plain stores. Execute has already proven the state
// that makes both acceptable — lockQuiet: no run registered, every worker
// parked, no wake in flight — so the workers' last writes to those nodes
// are ordered before the pass by their park announcements, and the wake
// that starts the run publishes the pass to them. The only one kept waiting
// is a Submit that arrives during the pass, behind stateMu as it would be
// behind the stats reset in the same section. A Submit's own checkout is
// the opposite case: it holds stateMu in front of every other tenant's
// admission and completion while workers are anywhere, so it never
// replays, and the feature adds no wait, wake or CAS to any protocol.
//
// What it buys, and the grain that is left (2 cores, 2.1 GHz Xeon, 256x256
// wavefront, task bodies of 5-490 ns): a replayed task costs the scheduler
// 30-50 ns on one worker where a discovered one costs about 200 (the
// 128x128 BenchmarkExecutePerTask rows: 1w 53, 2w 54, discover-1w 200,
// discover-2w 145 ns/task around a 5 ns body). At two workers the wall
// clock per task is roughly 40 ns + half the body replaying and 135 ns +
// half the body discovering, so two workers beat the serial walk of the
// same Compute calls for bodies above about 80 ns when replaying and about
// 250 ns when discovering, and lose below: at 40 ns bodies replay reads
// 1.3x the walk's time. The floor is no longer creation; it is the pass
// itself and two workers trading node lines along adjacent wavefront rows.
//
// # Design note: the failure model
//
// A multi-tenant engine must not let one tenant's bug take down the
// pool. Failure is therefore a per-graph event, never a per-engine one,
// built from three pieces.
//
// Panic isolation. Every path on which a worker runs user code — a
// node's Compute, or any spec callback reached while processing an item
// — sits under a recover boundary (worker.rescue) at the exec/seed
// entry points. A panic unwinds only the current item's spawn cascade;
// rescue converts it into a *ComputeError carrying the graph id, the
// key the worker was processing, the recovered value, and the stack,
// then fails the owning run. The worker goroutine itself survives and
// goes back to its deque. A spec callback that panics mid-creation
// would otherwise leave a node stuck in initializing, so the table
// publishes a poisoned node
// on the panic path — empty predecessors and an unreachable join count
// — so racing workers never spin forever on a half-built node.
//
// Completion is decided exactly once per run by a CAS on the graphRun's
// state word (runLive → runDone or runFailed). The winner — the sink's
// computing worker, Ticket.Cancel, a context watcher, a rescuing
// worker, or the stall sweep — owns the whole completion: registry
// removal, admission-slot release, table disposal, and settling the run
// once its stats and error are final (settleLocked: the runSettled bit,
// and the done channel closed if somebody made one, both under stateMu).
// Everyone else's attempt is a no-op, which is what makes
// Cancel racing a normal finish (or two cancels racing each other)
// safe.
//
// Cancellation. The failed state also serves as the discard signal:
// every deque item already carries its *graphRun, so a worker skips
// items of a dead run with a single atomic load at the exec boundary —
// no deque surgery, no new synchronization on the hot path; a dead
// graph's items simply drain as they surface. SubmitCtx/ExecuteCtx
// attach a context by registering a callback on it (context.AfterFunc)
// that fails the run if the context fires first, and unregistering it
// when the run settles, so a ctx run costs no goroutine; admission waits
// honor the context too.
// Cancellation is asynchronous with respect to in-flight nodes: the
// node a worker has already started runs to completion, but no further
// nodes of that graph are begun, and once a run is observed dead its
// OnComplete callbacks stop (a Compute that cancels its own run via
// Ticket.Cancel gets no completion callback for the canceling node).
//
// What is reusable after a failure: the engine, fully. Workers, deques,
// and the admission slots are untouched by construction; the failed
// run's slot is released by the completion owner. The one subtlety is
// the run's node table: at fail time workers may still be touching it
// through in-flight items, so neither it nor the pages it holds can go
// straight back to their pools. failRun quarantines it on a dead-tables
// list, and the engine returns quarantined tables (and pages) to the
// pools only at proven-quiet points — when
// Execute observes all workers parked, or when the stall sweep runs
// (which itself only fires from the last parking worker). Subsequent
// graphs therefore see either a recycled clean table or a fresh one,
// and schedules after a failure are byte-identical to a fresh engine's
// — pinned by TestPanicFailureScheduleIdentity. What is not
// reusable: the failed graph's partial results; resubmitting the same
// sink re-explores the graph from scratch in a new epoch.
//
// Every failure is typed: *ComputeError for recovered panics and
// exhausted retries, ErrCanceled (wrapped with the graph id and the
// context cause) for Cancel and context expiry, *StallError —
// carrying a bounded sample of the still-pending keys — for graphs
// whose sink can provably never compute, and ErrClosed for lifecycle
// refusals. All compose with
// errors.Is/errors.As. Package chaos provides the seeded
// fault-injection harness that drives this model deterministically.
//
// # Design note: transient-fault recovery
//
// Faults in long-running graph services are often transient — a remote
// fetch times out, a resource is briefly contended — so killing the
// graph on first failure wastes everything already computed. Retry makes
// such a failure survivable without giving up the model above.
//
// Retry in place. A spec that implements FallibleSpec (ComputeErr
// returning error; FuncSpec.ComputeErrFn) reports failures as values
// instead of panics. Under Options.Retry, the worker that owns the node's
// execution calls ComputeErr again at once, inside computeAndNotify,
// counting attempts in a local variable: no queue, no timer, no per-node
// storage, and no other worker ever sees the node between attempts. It
// stops early if the run is no longer live (a Cancel or a deadline, which
// own the cleanup). When MaxAttempts attempts have failed the failure
// becomes a *ComputeError carrying the attempt count and wrapping both
// ErrComputeFailed and the spec's own error chain. Re-running an
// attempted node is safe by the same argument as panic isolation: a
// failed attempt performed no retire, so no successor ever observed it.
// The engine offers no backoff: a spec whose failures want a delay
// before the next attempt waits inside ComputeErr, on its own clock, and
// bounds the whole run with a context deadline if the wait may be long.
//
// No hang watchdog: a run's deadline is its context. A Compute that never
// returns cannot be recovered by retries — nothing unwinds — and Go cannot
// preempt it, so whatever the engine decides, the stuck goroutine keeps
// its worker until user code returns. A per-node timer would buy one
// thing: the run could give up on the hung node itself, at the
// price of a per-worker publication on every execution, a monitor
// goroutine, and no lazy publication or caller-run Wait for any run of the
// engine (a held range or a waiting goroutine would be stuck with the
// node). The engine has none. A caller bounds a run with SubmitCtx or
// ExecuteCtx and a context deadline, which fails the run with ErrCanceled
// (wrapping context.DeadlineExceeded) as promptly; the hung Compute's
// eventual return lands on a dead run and is dropped at the exec boundary
// like any canceled item.
//
// A failed task fails its graph. The engine has no notion of a task the
// graph may lose: a node that has exhausted its attempts fails the run
// with its *ComputeError, as a panic does. A graph that can do without a
// task's result says so in its own code. The task's ComputeErr records
// the failure in the spec's state (a flag or an error slot per key) and
// returns nil, and every successor that reads the result checks that
// state first and does its fallback work. To the engine the task
// succeeded: the run completes with Stats, and a later Execute of the
// same sink replays it (TestOptionalTaskInUserCode).
//
// Single retirer. A node is retired only when it completes, and only by
// the one goroutine that owns its execution: the worker whose decrement
// drained its join, which also makes every retry. A failed run retires
// nothing more; its items are dropped at the exec boundary. So while a
// node's Compute runs nobody else can retire it, retire's CAS need not
// ask what phase it leaves, and a failed attempt goes straight to its
// retry or to computeFailed without checking whether the node was
// claimed meanwhile; a hang watchdog's claim would be the one writer that
// could break this.
package core
