// Package analysis is nabbitvet: the repo's custom static-analysis
// suite, enforcing at compile time the invariants the engine otherwise
// only discovers broken at runtime — a bench gate tripping, a torn
// lock-free word, a simulator schedule that stopped being byte-identical.
//
// # Design
//
// The framework is a deliberately small, stdlib-only mirror of
// golang.org/x/tools/go/analysis, which this build environment cannot
// vendor. The shapes are kept identical on purpose — Analyzer{Name, Doc,
// Run}, Pass{Fset, Files, Pkg, Info, Reportf} — so the suite can be
// ported onto the real framework mechanically if the dependency becomes
// available. Loading (load.go) shells out to `go list -export -deps
// -json` and type-checks root packages against gc export data, so a
// whole-repo run costs one `go list` plus parsing only the root sources.
// Analyzers that need more than one package at a time (noalloc's call
// graph) declare NeedsProgram and read Pass.Prog.
//
// Two entry modes share the analyzers (cmd/nabbitvet):
//
//   - standalone: `go run ./cmd/nabbitvet ./...` loads the whole program
//     and runs all four analyzers, including noalloc;
//   - vet tool: `go vet -vettool=$(which nabbitvet) ./...` speaks
//     cmd/go's unitchecker protocol (unitchecker.go). This mode also
//     analyzes _test.go files, but sees one package at a time, so
//     NeedsProgram analyzers are skipped there.
//
// scripts/lint.sh runs both modes (plus gofmt -s, go vet, staticcheck)
// and is the CI `analysis` job's hard gate.
//
// # Directives
//
// All source directives share the //nabbit: prefix (directive comment
// form, no space after //). Escape directives apply on their own line or
// the line immediately above the flagged position, and every escape
// should carry a short justification after its name.
//
//	//nabbit:bitfield word=W width=32|64 layout=f:lo-hi,g:bit,...
//	    On a const block: declares the packed-word layout the block's
//	    constants implement. Checked by atomicbits.
//	//nabbit:rawmask-ok        escape: deliberate raw literal on a tracked word
//	//nabbit:noalloc
//	    On a function: it and everything it statically calls must not
//	    contain a compiler-proven heap allocation. Checked by noalloc.
//	//nabbit:alloc-ok
//	    On a function: a declared cold path — the noalloc traversal
//	    neither reports nor descends into it. On a line: escapes that
//	    one allocation site.
//	//nabbit:deterministic
//	    File-level (any file of a package): opts the package into the
//	    nodeterminism rules.
//	//nabbit:nondeterministic-ok   escape: deliberate nondeterminism
//	//nabbit:lockheld-ok           escape: deliberate op under a held mutex
//	//nabbit:mixed-ok              escape: deliberate plain access to an
//	                               atomically accessed field
//
// # The analyzers
//
// atomicbits (atomicbits.go) proves a //nabbit:bitfield declaration
// against the type-checker's exact constant values: fields fit the word
// and are pairwise disjoint; every Mask/Bit/Shift/Unit/Inc/Max constant
// in the block equals what the layout implies for its field (matched by
// name); every field is witnessed by at least one constant. It also
// forbids raw integer literals (other than 0 and 1) in bitwise
// expressions or atomic-mutator arguments inside any function that
// touches a tracked word, so the directive stays the single source of
// truth. This is the analyzer that would have caught PR 9's stale
// epoch-range documentation: internal/core's state word and
// internal/deque's block index word both carry directives.
//
// noalloc (noalloc.go, escape.go) is the compile-time counterpart of the
// CI allocation bench gates. It runs the real compiler escape analysis
// (`go build -gcflags=-m=1`, replayed from the build cache), attributes
// each "escapes to heap" / "moved to heap" site to its enclosing
// function, builds the static call graph, and fails if any
// //nabbit:noalloc root reaches an unescaped site. Scope notes:
// amortized growth (append, map inserts) is not a per-call site and
// stays the bench gates' business; interface calls and the stdlib are
// not descended into (but caller-side boxing to make such a call is
// caught); pure string-literal escapes ("..." escapes to heap) are
// skipped — they are panic-argument boxing of rodata constants, and
// inlining smears them onto every caller line.
//
// nodeterminism (nodeterminism.go) guards the simulator's
// byte-identical-schedule guarantee (the paper's locality claims are
// validated against deterministic virtual-time replays). In a
// //nabbit:deterministic package (internal/sim, internal/simomp) it
// forbids wall-clock and timer reads (time.Now/Since/Until/Sleep/After/
// Tick/NewTimer/NewTicker/AfterFunc), any import of math/rand or
// math/rand/v2 (internal/xrand's seeded generators are the sanctioned
// source), ranging over maps, and spawning goroutines.
//
// lockdiscipline (lockdiscipline.go) flags the two lock-usage mistakes
// the engine's protocols are most exposed to: a sync.Mutex/RWMutex held
// across a channel op, select, time.Sleep, or work-stealing deque call
// (straight-line Lock()...Unlock() regions, with defer Unlock() holding
// to function end); and a struct field accessed both through the
// sync/atomic function API and plainly in the same package — the bug
// class the deque's reader-count slot protocol and the nodes' join
// counters are vulnerable to.
//
// # Testing
//
// Each analyzer has a golden package under testdata/src/<name>_bad
// seeding deliberate violations, pinned line-by-line with `// want`
// comments plus a directive-escaped twin per rule proving the escape
// works (analysistest_test.go). selfcheck_test.go then loads the real
// repo and asserts the full suite is clean — the same invariant CI
// enforces — and pins internal/core's declared state-word layout field
// by field.
package analysis
