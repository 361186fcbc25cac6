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
// this in O(1): the node state word reserves bits 6..30
// for an epoch stamp, every lifecycle transition preserves the stamp,
// and reset just takes the table a new stamp from the engine's clock — a
// slot stamped with any other epoch reads as absent, so there is no
// per-slot clearing loop (what happens when the 25-bit stamp wraps is
// the page pool's business; see the node-table note below). Successor-list
// backing arrays survive the same way: retirement leaves them in place,
// and they stay with their slot wherever its page goes next, so
// steady-state Execute and Submit cycles allocate only run bookkeeping
// (single-digit allocations), never per-node storage. An Execute of the
// sink the table has just served goes further and forgets nothing: it
// re-arms the last run's nodes where they lie (see the replay note).
//
// # Design note: multi-tenancy — per-graph runs, tables, and admission
//
// Each admitted graph is a graphRun: an engine-unique id, its own node
// table instance, and a completion channel. A table resolves keys for
// one graph at a time, so concurrent graphs cannot share one — instead
// the engine keeps a pool of idle table instances under its state lock;
// admission checks one out (reset to a fresh stamp) and completion
// returns it. A table is little more than a directory: the nodes
// themselves live in 64-node pages that every table of the engine draws
// from one page pool and hands back when its run ends, so what 128
// graphs in flight cost is the pages their nodes fall in, not 128 copies
// of the key universe. The recycle point is safe by a scheduling
// invariant: when a run's sink computes, no deque can still hold an item
// of that run, because any such item would be feeding a join below the
// not-yet-computed sink. Every deque item carries its *graphRun, so
// workers are graph-oblivious: steals and pops interleave whatever mix
// of graphs is in flight, and a worker seeds a newly admitted graph from
// the pending queue on a fixed stride (seedStride) of local pops, which
// bounds how long a new graph waits behind a busy one.
//
// Admission is a slot semaphore of capacity Options.MaxInflight.
// AdmissionBlock (the default) makes Submit wait for a slot;
// AdmissionReject makes it fail fast with ErrSaturated. Execute uses the
// same semaphore — it blocks until it holds a slot, then waits for the
// engine to go quiet before taking exclusive occupancy, which is what
// entitles it to per-worker stats resets (and the lastGrows snapshot
// that keeps a failed run from corrupting the next run's DequeGrows
// deltas). A graph whose exploration dies without computing its sink
// (a dependency cycle) is detected by the last worker to park: if every
// worker is parked, nothing is pending, and no deque has work while runs
// are still registered, the stall sweep fails every registered run and
// releases its slot — the engine stays reusable, byte-identical to a
// fresh one.
//
// # Design note: the parking protocol
//
// Idle workers do not spin indefinitely. Each worker carries a notify
// slot: an atomic parkState flag plus a one-token channel. A worker that
// completes spinBeforePark unsuccessful probe sweeps parks: it announces
// parkState (and the global parked count), re-checks its wake condition
// (shutdown / pending submissions / due retries / any deque non-empty),
// and only then blocks on the channel. A waker CASes parkState
// parked→running and, on winning, decrements the parked count and sends
// exactly one token; losing the CAS means someone else owns the wake.
// Announce-then-recheck on one side and publish-then-scan on the other
// make the classic Dekker argument: a producer either observes the parked
// announcement (and delivers a token) or published its work before the
// recheck (and the park is abandoned) — no lost wakeups, which the
// race-stress test pins. Decrementing parked on the waker side (not when
// the sleeper resumes) keeps the quiet-state reading exact: parked ==
// workers implies no wake token is in flight.
//
// Who owes which wake. Producers do not wake on every push. The engine
// keeps a searching count (Engine.searching, beside parked): one for each
// worker that has run out of local work and is hunting, one for each wake
// from the instant its waker wins the CAS until the woken worker finds
// work or parks again. Every wake for published work is decided in one
// function, Engine.signal: a producer — a deque push, an admission, a due
// retry — wakes a parked worker only if it reads the count zero (and the
// deferred wake below not armed); otherwise whoever holds a count owes
// the next wake, and pays it when the count is given up:
//
//   - A searcher that finds work by stealing and was the last one
//     searching wakes another worker (the victim pushed those items
//     earlier, so no push is coming to signal for the rest); one that
//     finds work by seeding a pending graph or claiming a retry does so
//     only if more work is visible — the graph it seeds signals for
//     itself with its first push.
//   - A searcher that gives up parks: it drops its count first, announces,
//     and the full re-check covers whatever a producer left to it.
//   - At most max(1, P/2) workers search at once. A worker that runs dry
//     while that many already hold a count does not hunt: it yields its P
//     a few times (yieldBeforePark), polling the pending and retry queues
//     in between, then parks, re-checking only for shutdown — the
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
// retries / deques, and — where the goroutine itself would have abandoned
// the park — wake it through the ordinary CAS, which a concurrent waker
// may win instead. Either way exactly one token follows an announcement
// that needed one. The run is re-checked between winning the CAS and
// touching the worker: a live run keeps the engine from going quiet, and
// Execute resets worker state only in the quiet state; a worker won for a
// run that completed in between is announced parked again untouched.
// Runs admitted with a ctx, and every run of an engine with the watchdog
// armed, are never run this way: their Wait must return while a Compute
// is still stuck. Execute keeps waking a worker and sleeping on the run —
// measured on the coarse kernels, running the graph from Execute bought
// nothing once the wake was no longer wasted.
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
//     admission into an engine with a graph in flight or a worker awake, a
//     ctx or watchdog run, a due retry;
//   - everybody about to sleep on the engine instead of running its graphs:
//     Ticket.Done, a Wait that found nobody to borrow, Execute's and Close's
//     quiesce;
//   - whoever finds the deadline passed: a running worker (or guest) at its
//     stride poll, which is how a graph that outlives the delay gets its
//     second worker, and the deferral's timer.
//
// A hand-back retires nothing: the next idle admission moves the deadline,
// any other calls wakeNow, and in a Submit-then-Wait loop the timer, pushed
// along by each admission, does not fire. The deferral carries no count and
// its retirement is a plain store, so retirements may race each other and
// an arming admission freely. What keeps a graph from being lost is two
// orders. Arming happens under stateMu after the graph is published, and
// wakeNow stores before it looks, so whoever wipes a deadline sees the
// graph it stood for; a producer's signal reads the word after its push, so
// either it sees the word cleared or the retirer's look sees the push. And
// the timer is set after the deadline is visible, by the admission that
// published it (a firing that finds a deadline still ahead sets it again),
// so no armed deferral is ever without a pending timer: liveness rests on
// the timer alone, and a caller of wakeNow that is missing costs a delay,
// not a hang. That delay is the contract for a Submit into an idle engine
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
// no deque work, no retry due or in backoff, since a backoff timer's enqueue
// wakes a worker; a failed run's timers are stopped, not waited out), which
// is what makes resetting per-worker
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
// Halstead, 1991) do. In an engine without a NodeTimeout, a worker runs a
// range's keys in order, pushing nothing, while all three of these hold
// (runGroup):
//
//   - its deque already holds stealable work (Mutex.OwnerLen, a lock-free
//     read for the owner);
//   - no worker is hungry: none is searching, and none is parked unless
//     the deferred wake holds it back — exactly the cases in which a push
//     would feed a hunter or wake a sleeper;
//   - every key resolved so far was flat: it ran at most one task and
//     opened no range of its own.
//
// A worker whose deque is empty still publishes the upper half before it
// runs a key, so there is always something to steal while it works. The
// conditions are read at each leaf boundary; at the first one where one
// fails, the rest of the range is published as eager splitting would have
// left it after that key — the right siblings on the key's path through
// the range's split tree, largest first — and the worker returns to its
// loop. The fairness stride (seedStride) and a guest whose run has
// completed end a held range the same way, and the rest of a run that is
// no longer live is dropped. KeepHalf's colour-group pushes stay eager,
// so what a colored steal can see does not change.
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
// that hangs is another matter: the watchdog (below) may degrade its key,
// and the run then needs the rest of the range, which a held range would
// keep in the stuck worker's locals for good. So with a NodeTimeout set
// the engine splits every range eagerly (mayHold), as it also keeps a
// watchdog run off its waiter (graphRun.callerRuns);
// TestWatchdogDegradesInsideRange stages the hang.
// WorkerStats.Pushes counts what each worker put on its deque.
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
// # Design note: the node lifecycle word
//
// Every Node carries one atomic state word encoding its lifecycle phase
// plus a successor-list claim bit. The phases are monotonic:
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
//   - computed: retire (markComputed, or claimSkip for a degraded node)
//     published the computed phase with one CAS from an unlocked word;
//     from that instant addSuccessor refuses new registrations and the
//     successor list belongs to the retiring worker alone, so every
//     successor is notified exactly once.
//
// The claim bit (succLockBit) is a short CAS-acquired spin lock guarding
// appends to the successor list — held across one append, never across a
// spec call. It replaces the per-node sync.Mutex the
// addSuccessor/markComputed handshake once took: the uncontended cost of
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
// padding; the words other goroutines write (park handshake, watchdog
// publication) come after a third. Deque headers are padded the same way
// by internal/deque. What a worker writes to a node table outside the
// nodes — its creation count, the list of page numbers it installed a
// page under — is striped per worker, a line apart, in storage of its
// own: nodeArena.getOrCreate takes the worker id, the stripe is a plain
// increment or append, count() and release() read the stripes once the
// run's completion has ordered every write before the reader, and reset
// clears the counts with the stamp. A counter or list cursor shared by
// the workers sits on a line every one of them writes: the single
// creation counter of old invalidated the line every lookup reads, and a
// shared cursor for the installed list — one locked add per page, 1 024
// per run — cost the wavefront benchmark 8 %. The page pool follows the
// same rule: each worker pushes and pops a private stack of pages, and
// trades half a stack at a time with the locked shared list.
//
// What a table owns and what the engine shares:
//
//	per table    directory (one pointer per 64 slots, or a radix tree of
//	             them; see the node-table note); stamp, era and last
//	             sink; one stripe per worker (creation count, installed
//	             page numbers)
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
// (parked, read by every push; the admission state; the retry counters)
// follow, each group at least a line from that block and from each other.
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
// whatever the key space, and the engine has one: nodeArena, a directory
// of 64-node pages. A table is empty at checkout; the first worker to
// name a key in a page's range takes a page from the engine-wide pool and
// CASes it in, and getOrCreate is then a walk to the directory entry and
// one atomic load of the slot's state word (lookup) or one CAS (create):
// no hashing, no locks, no per-node allocation. Nabbit creates nodes on
// demand, and so does the table its storage: a 17-node graph out of a
// million-key universe costs the two or three pages its keys fall in.
// Page pool, epoch stamps, hand-back and replay are one mechanism for
// every spec. What differs is how a key finds its slot (slotOf):
//
//   - Indexed. A spec that declares a bound of at most 2^21 keys
//     (BoundedSpec / FuncSpec.BoundFn) gets a record per key, built once
//     per engine, assigning slots home-major (HomeMajorIndex): tasks whose
//     data lives at the same color sit contiguously, so a worker sweeping
//     its own color's tasks walks dense memory — the paper's assumption
//     that task data clusters at its home color, applied to the
//     scheduler's own metadata. The directory is one flat leaf of a page
//     per 64 slots that never grows, so a lookup is three dependent loads:
//     record, directory entry, state word. A key outside the declared
//     bound is a spec error, reported as such. All benchmark workloads
//     (stencil grids, CSR blocks, wavefronts) declare bounds.
//   - Raw. Any other key — no bound, or a bound past 2^21 — is its own
//     slot: index k&63 of page k>>6, the page number zigzag-folded so that
//     keys of small magnitude, negative or not, stay shallow. Page numbers
//     index a radix tree in the shape of the Go runtime's heap-arena map:
//     64-way levels, installed by CAS the first time a page number under
//     them is named and never freed while the table lives, the root grown
//     upwards by CASing in a new level whose child 0 is the old root. The
//     first 64 pages (keys -2048..2047) answer from the first leaf
//     without a walk; page numbers past it cost one load per level, up to
//     ten for keys near ±2^63. Colour and home come from the spec at fill.
//     Creating a raw key costs ~48 ns and looking one up ~9 ns against
//     ~240 ns and ~26 ns in the sharded RWMutex map this table replaced
//     (BenchmarkGetOrCreate/GetOrCreateLookup, 2-CPU Xeon VM; indexed keys
//     ~45 ns and ~4.4 ns), and raw-key graphs replay like indexed ones.
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
// The directory's two CAS installs — an interior level under a nil
// entry, and a new root over the old — are a protocol of their own: every
// racer must end on the winner's level, and no page may be installed
// under a level that lost. TestArenaGetOrCreateRace's unbounded row
// stresses them; they are a target for a deterministic interleaving
// explorer once the repository has one.
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
// And the watchdog's monitor, the one outsider that touches a running
// graph's nodes, pins them by holding stateMu across its runLive check
// and its claim; the hand-back sits inside finishRun's stateMu section,
// so it cannot overtake a monitor section that still saw the run live,
// and until the monitor holds that pin it names the node by the key the
// worker published, never through the pointer. Failed and hung runs keep
// their pages with their quarantined table until a proven-quiet point.
//
// One exception keeps an iterative workload from paying for this: a
// table on its first run, or asked for the same sink as the run before,
// keeps its pages, and reset hands them back if the next graph turns out
// to be another one. An Execute loop therefore finds every node where it
// left it — line, successor array and all — while a stream of different
// graphs hands back at every finish.
//
// The pool itself grows a slab at a time while graphs are in flight and
// falls back to a fixed few slabs when the last of them finishes
// (pagePool.trim, inside the same stateMu section): how many graphs were
// seeded but unfinished at once is a matter of timing, and an idle engine
// should not carry the high-water mark of its worst moment.
//
// Stamps and the wrap rule. Stamps come from one engine-wide clock that
// counts table checkouts: the stamp is the count modulo 2^25 and the era
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
// pages (rearm) that leaves every node the last run computed ready again
// under the new stamp, join count back at its in-degree, and hangs the
// nodes without predecessors on a table-owned root node as its successor
// list. worker.seed roots the run with a successor-work item over that
// root instead of creating the sink, and from there the run is the notify
// cascade that exists anyway — computeAndNotify, decJoin, groupNodes, the
// deque — from the sources up to the sink, whose completion finishes the
// run as ever. No node is created, no edge registered, no predecessor item
// pushed; none of the per-task functions knows it is replaying. Stats
// reports the run as Replayed, with NodesCreated the number re-armed.
//
// Eligibility. All of: the table is checked out by Execute (below); the
// sink is the one it served last, in the same era, so it still holds that
// run's pages; that run ended at its sink through finishRun with no node
// failed, skipped or timed out (release is told, and a failed, canceled,
// stalled or hung run's table comes back through quarantine, which tells
// it the opposite); and the spec has not been caught returning a different
// slice (next paragraph). Everything else discovers, exactly as before:
// every first run, every Submit, the run after a failure, a changed sink,
// the first run of a new era. A pass that gives
// up half-way has stamped some nodes ready, so the discovery that follows
// takes a stamp of its own and finds them all absent.
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
// check, the table remembers (unstable) and never asks again for that
// sink, so such a spec pays for one short pass, not one per Execute. A
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
// graph (5-7 ns a node, 0.3-0.4 ms of a 65 536-node run's 2.7-3.1, counted
// in Elapsed) and writes nodes with plain stores. Execute has already proven the state that makes both
// acceptable — lockQuiet: no run registered, every worker parked, no wake
// in flight — so the workers' last writes to those nodes are ordered before
// the pass by their park announcements, the wake that starts the run
// publishes the pass to them. The only one kept waiting is a Submit that
// arrives during the pass, behind stateMu as it would be behind the stats
// reset in the same section. A Submit's own checkout is the opposite case:
// it holds stateMu in front of every other tenant's admission and
// completion while workers are anywhere, so it never replays, and the
// feature adds no wait, wake or CAS to any protocol.
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
// removal, admission-slot release, table disposal, and closing the done
// channel. Everyone else's attempt is a no-op, which is what makes
// Cancel racing a normal finish (or two cancels racing each other)
// safe.
//
// Cancellation. The failed state also serves as the discard signal:
// every deque item already carries its *graphRun, so a worker skips
// items of a dead run with a single atomic load at the exec boundary —
// no deque surgery, no new synchronization on the hot path; a dead
// graph's items simply drain as they surface. SubmitCtx/ExecuteCtx
// attach a context by spawning a watcher goroutine that fails the run
// when the context fires first; admission waits honor the context too.
// Cancellation is asynchronous with respect to in-flight nodes: the
// node a worker has already started runs to completion, but no further
// nodes of that graph are begun, and once a run is observed dead its
// OnComplete callbacks stop (a Compute that cancels its own run via
// Ticket.Cancel gets no completion callback for the canceling node).
//
// What is reusable after a failure: the engine, fully. Workers, deques,
// and the admission semaphore are untouched by construction; the failed
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
// context cause) for Cancel and context expiry, *TimeoutError for
// watchdog kills, *PartialError for degraded completions, *StallError —
// carrying a bounded sample of the still-pending keys — for graphs
// whose sink can provably never compute, and ErrClosed/ErrSaturated for
// lifecycle and admission refusals. All compose with
// errors.Is/errors.As. Package chaos provides the seeded
// fault-injection harness that drives this model deterministically.
//
// # Design note: transient-fault recovery
//
// Faults in long-running graph services are often transient — a remote
// fetch times out, a resource is briefly contended — so killing the
// graph on first failure wastes everything already computed. Three
// cooperating mechanisms make failure survivable without giving up the
// model above.
//
// Retry with backoff. A spec that implements FallibleSpec (ComputeErr
// returning error; FuncSpec.ComputeErrFn) reports failures as values
// instead of panics. Under Options.Retry, a failed attempt re-arms the
// node in its lifecycle word: the word reserves bits 2..4 as an attempt
// counter, and bumpAttempt CASes the counter up while rolling the phase
// back to ready — the same single-word protocol as the rest of the
// lifecycle, so no new per-node storage. (Like setSkip, the CAS never
// lands while succLockBit is held: the holder's unlock store would
// erase the update.) The re-armed node is then re-enqueued after a
// backoff that doubles per retry — BaseBackoff << (attempt-1), the same
// for every run of the same policy — via a timer that appends to an
// engine retry queue; workers drain the queue on the same park/wake
// protocol as fresh submissions, so a retry behaves exactly like newly
// discovered work. When the counter reaches MaxAttempts the failure
// becomes a *ComputeError carrying the attempt count and wrapping both
// ErrComputeFailed and the spec's own error chain. Re-running an
// attempted node is safe by the same argument as panic isolation: a
// failed attempt performed no markComputed, so no successor ever
// observed it.
//
// The hang watchdog. A Compute that never returns cannot be recovered
// by retries — nothing unwinds. Instead, each worker publishes its
// current execution (run, node, start time) in a per-worker seqlock
// before every Compute and clears it after; a lock-free monitor
// goroutine, started only when Options.NodeTimeout is set, samples the
// publications every NodeTimeout/4 (at least 100 µs). An overdue node
// is failed through the same single-completion CAS as every other
// failure — the monitor never touches the stuck goroutine, which keeps
// running until user code returns; its eventual completion lands on a
// dead run and is dropped at the exec boundary like any canceled item.
// The monitor keeps seeing a degraded node that still hangs and leaves it
// alone: the node has had its budget, and its run goes on without it.
// The publication holds the *Node pointer, so a recycled table can
// never make the monitor resolve a stale key in a fresh graph, and the
// key beside it, so the monitor can name the node (TimeoutError.Key,
// OptionalSpec.Optional) without reading through a pointer whose page
// may have been recycled since the sample. One consequence: an Execute
// whose run was hang-degraded skips the quiescence-gated per-worker
// stats gather (Workers stays nil, as in Submit mode), because
// quiescing would wait on the stuck goroutine. The watchdog bounds
// nodes, not runs: a caller bounds a whole run with SubmitCtx or
// ExecuteCtx and a context deadline, which fails it with ErrCanceled.
//
// Graceful degradation. A spec may mark nodes optional (OptionalSpec /
// FuncSpec.OptionalFn): best-effort enrichments whose loss should
// narrow the result, not destroy it. When an optional node exhausts its
// retries (or overruns NodeTimeout) and the run still has error budget
// (Options.ErrorBudget, per run, spent by atomic decrement), the node
// is not failed — it is skipped: nodeSkipBit is set on it and
// propagated through its successor cone by the normal join-counter
// cascade, so exactly the data-dependent downstream nodes are retired
// unexecuted and independent subgraphs proceed untouched. A degraded
// run completes with both Stats (Retries, TimedOut, Skipped ledgered)
// and a *PartialError listing the failed keys and a bounded sample of
// the skipped ones. A skipped sink still completes the run — degraded,
// not failed. Budget exhausted means the next permanent failure fails
// the run with its ordinary typed error.
package core
