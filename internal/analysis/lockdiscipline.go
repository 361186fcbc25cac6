package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockdiscipline flags the two lock-usage mistakes the engine's
// protocols are most exposed to:
//
//  1. Holding a sync.Mutex/RWMutex across an operation that can block
//     indefinitely or re-enter the scheduler: channel sends/receives,
//     select statements, time.Sleep, and calls into the work-stealing
//     deques (a deque call under a shard lock is a lock-ordering
//     hazard against the deque's own lock). The region tracking is a
//     straight-line approximation: Lock()...Unlock() within one
//     statement list, with defer Unlock() holding to function end.
//
//  2. Mixing sync/atomic operations and plain loads/stores on the same
//     struct field — the bug class the reader-count slot protocol and
//     the nodes' join counters are vulnerable to. A field
//     that is ever passed to atomic.LoadT/StoreT/AddT/SwapT/
//     CompareAndSwapT must never also be read or written plainly
//     (migrate it to an atomic.Int*/Uint* typed field, which makes
//     plain access unrepresentable).
//
// //nabbit:lockheld-ok and //nabbit:mixed-ok on the offending line (or
// the line above) escape deliberate exceptions.
var Lockdiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "flag mutexes held across blocking/scheduler operations and " +
		"sync/atomic ops mixed with plain accesses on one field",
	Run: runLockdiscipline,
}

func runLockdiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkHeldRegions(pass, fd.Body.List, newHeldSet())
			}
		}
	}
	checkMixedAtomics(pass)
	return nil
}

// heldSet tracks mutexes currently held, keyed by the text of the
// receiver expression ("sh.mu").
type heldSet struct{ m map[string]bool }

func newHeldSet() *heldSet { return &heldSet{m: make(map[string]bool)} }

func (h *heldSet) clone() *heldSet {
	c := newHeldSet()
	for k := range h.m {
		c.m[k] = true
	}
	return c
}

func (h *heldSet) any() bool { return len(h.m) > 0 }

// mutexMethod classifies a call as a lock or unlock on a sync mutex,
// returning the receiver key.
func mutexMethod(pass *Pass, call *ast.CallExpr) (key string, lock, unlock bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		unlock = true
	default:
		return "", false, false
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false, false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return "", false, false
	}
	named := namedOf(recv.Type())
	if named == nil {
		return "", false, false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || pkg.Path() != "sync" {
		return "", false, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", false, false
	}
	return exprKey(sel.X), lock, unlock
}

// namedOf unwraps pointers down to a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// exprKey renders a receiver expression to a stable comparison key.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	case *ast.StarExpr:
		return exprKey(e.X)
	}
	return "?"
}

// checkHeldRegions walks a statement list tracking held mutexes and
// flagging blocking operations inside held regions. Nested control flow
// is entered with a copy of the held set (branch-local unlocks don't
// propagate out — a deliberate straight-line approximation).
func checkHeldRegions(pass *Pass, stmts []ast.Stmt, held *heldSet) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, lock, unlock := mutexMethod(pass, call); lock {
					held.m[key] = true
					continue
				} else if unlock {
					delete(held.m, key)
					continue
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() holds the lock to function end; the held
			// set keeps the key, and the region check covers the rest of
			// the list. A deferred anything-else is skipped (it runs at
			// exit, outside the straight-line region).
			continue
		}
		if held.any() {
			flagBlockingOps(pass, stmt, held)
		}
		// Recurse into nested statement lists with a branch-local copy.
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			checkHeldRegions(pass, s.List, held.clone())
		case *ast.IfStmt:
			checkHeldRegions(pass, s.Body.List, held.clone())
			if s.Else != nil {
				if blk, ok := s.Else.(*ast.BlockStmt); ok {
					checkHeldRegions(pass, blk.List, held.clone())
				} else {
					checkHeldRegions(pass, []ast.Stmt{s.Else}, held.clone())
				}
			}
		case *ast.ForStmt:
			checkHeldRegions(pass, s.Body.List, held.clone())
		case *ast.RangeStmt:
			checkHeldRegions(pass, s.Body.List, held.clone())
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkHeldRegions(pass, cc.Body, held.clone())
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkHeldRegions(pass, cc.Body, held.clone())
				}
			}
		}
	}
}

// flagBlockingOps inspects one statement (excluding nested statement
// lists, which recurse separately, and function literals, which run
// elsewhere) for operations that must not happen under a mutex.
func flagBlockingOps(pass *Pass, stmt ast.Stmt, held *heldSet) {
	// Top-level nested blocks are visited by the region walker; only
	// inspect the statement's own expressions here.
	switch stmt.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt:
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			report(pass, n.Pos(), "select statement while holding %s", held)
			return false
		case *ast.SendStmt:
			report(pass, n.Pos(), "channel send while holding %s", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(pass, n.Pos(), "channel receive while holding %s", held)
			}
		case *ast.CallExpr:
			if obj := calleeObject(pass, n); obj != nil {
				if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "time" && obj.Name() == "Sleep" {
					report(pass, n.Pos(), "time.Sleep while holding %s", held)
				}
			}
			if isQueueCall(pass, n) {
				report(pass, n.Pos(), "work-stealing deque call while holding %s", held)
			}
		}
		return true
	})
}

func report(pass *Pass, pos token.Pos, format string, held *heldSet) {
	if pass.Escaped(pos, "lockheld-ok") {
		return
	}
	keys := make([]string, 0, len(held.m))
	for k := range held.m {
		keys = append(keys, k)
	}
	pass.Reportf(pos, format+" (//nabbit:lockheld-ok to override)", strings.Join(keys, ", "))
}

// isQueueCall reports whether call is a work-stealing deque operation
// that can hand off control (take the deque's lock, spin on a contended
// word): a Push*/Pop*/Steal* method on a named type declared in
// internal/deque or on any type named Queue (its interface). Internal
// helpers and atomic accessors (Grows, Len, StealCASes) are exempt —
// they neither block nor re-enter.
func isQueueCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if !strings.HasPrefix(name, "Push") && !strings.HasPrefix(name, "Pop") &&
		!strings.HasPrefix(name, "Steal") {
		return false
	}
	if name == "StealCASes" {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Name() == "Queue" {
		return true
	}
	pkg := obj.Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/deque")
}

// atomicValueFuncs match sync/atomic's function-style API (the typed
// atomic.Int*/Uint* methods cannot be mixed with plain access, so only
// the pointer-taking functions matter here).
func isAtomicValueFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(fn.Name(), prefix) {
			return true
		}
	}
	return false
}

// checkMixedAtomics reports struct fields that see both sync/atomic
// function access and plain loads/stores within the package.
func checkMixedAtomics(pass *Pass) {
	atomicFields := make(map[*types.Var]token.Pos) // field -> first atomic site
	atomicArgSelectors := make(map[*ast.SelectorExpr]bool)

	// Pass 1: find fields accessed through the sync/atomic functions.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[fun.Sel]
			if obj == nil || !isAtomicValueFunc(obj) {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			sel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := pass.Info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			field, ok := s.Obj().(*types.Var)
			if !ok {
				return true
			}
			if _, seen := atomicFields[field]; !seen {
				atomicFields[field] = sel.Pos()
			}
			atomicArgSelectors[sel] = true
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}

	// Pass 2: every other selection of those fields is a plain access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgSelectors[sel] {
				return true
			}
			s, ok := pass.Info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			field, ok := s.Obj().(*types.Var)
			if !ok {
				return true
			}
			if _, isAtomic := atomicFields[field]; !isAtomic {
				return true
			}
			if pass.Escaped(sel.Pos(), "mixed-ok") {
				return true
			}
			pass.Reportf(sel.Pos(), "plain access to field %s, which is also accessed with sync/atomic operations in this package; make the field a typed atomic (//nabbit:mixed-ok to override)", s.Obj().Name())
			return true
		})
	}
}
