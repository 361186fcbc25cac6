package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Noalloc is the compile-time counterpart of the CI allocation bench
// gates: a function annotated
//
//	//nabbit:noalloc
//
// (the deque Push/Pop/Steal entry points, the node table's
// create-or-get, the node lifecycle transitions on the exec path) must
// not contain a compiler-proven per-call heap allocation — an "escapes
// to heap" or "moved to heap" site — and neither may anything it
// statically calls within this module. The check runs the real escape
// analysis (go build -gcflags=-m) and attributes each allocation site to
// its enclosing function, so a regression fails the build instead of
// waiting for a bench gate to notice.
//
// Scope and contract:
//
//   - Amortized growth (append past capacity, map inserts) is not a
//     per-call allocation site and is deliberately out of scope; that
//     steady-state story belongs to the bench gates. The two checks are
//     complementary.
//   - Only statically resolvable calls into this module's packages are
//     followed. Interface calls (spec callbacks, Queue dispatch) and
//     stdlib internals are not descended into — though an allocation the
//     caller itself performs to make such a call (interface boxing,
//     escaping arguments) is attributed to the caller and caught.
//   - A deliberate cold path (a grow, a spill) is annotated
//     //nabbit:alloc-ok on the function, which makes it a barrier: the
//     traversal neither reports it nor descends into it. A single
//     deliberate site can instead carry //nabbit:alloc-ok on its line.
var Noalloc = &Analyzer{
	Name: "noalloc",
	Doc: "forbid compiler-proven heap allocations in //nabbit:noalloc functions " +
		"and everything they statically call",
	Run:          runNoalloc,
	NeedsProgram: true,
}

// funcInfo is one function declaration in the program's call graph.
type funcInfo struct {
	pkg     *Package
	decl    *ast.FuncDecl
	key     string
	noalloc bool
	allocOK bool
	allocs  []allocSite
	callees []string
}

// funcKey builds the cross-package key for a function or method:
// pkgpath.Recv.Name. Keys are built from each package's own view and
// from importers' views of the origin object; both reduce to the same
// string.
func funcKey(pkgPath, recv, name string) string {
	if recv != "" {
		return pkgPath + "." + recv + "." + name
	}
	return pkgPath + "." + name
}

func runNoalloc(pass *Pass) error {
	if pass.Prog == nil {
		return nil // unitchecker mode: no whole-program view
	}
	prog := pass.Prog
	prog.noallocOnce.Do(func() {
		prog.noallocDiags, prog.noallocErr = noallocProgram(prog)
	})
	if prog.noallocErr != nil {
		return prog.noallocErr
	}
	if prog.noallocReported {
		return nil
	}
	prog.noallocReported = true
	for _, d := range prog.noallocDiags {
		pass.report(Diagnostic{Analyzer: pass.Analyzer.Name, Pos: d.pos, Message: d.msg})
	}
	return nil
}

type noallocFinding struct {
	pos token.Position
	msg string
}

// noallocProgram runs the whole-program check once: index every
// function, attribute escape-analysis allocation sites, build the
// static call graph, and walk it from each annotated root.
func noallocProgram(prog *Program) ([]noallocFinding, error) {
	index := buildFuncIndex(prog)
	roots := make([]*funcInfo, 0)
	for _, fi := range index.byKey {
		if fi.noalloc {
			roots = append(roots, fi)
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].key < roots[j].key })

	facts, err := prog.escapeAnalysis()
	if err != nil {
		return nil, err
	}
	for file, sites := range facts.sites {
		for _, site := range sites {
			if fi := index.enclosing(file, site.Line); fi != nil {
				fi.allocs = append(fi.allocs, site)
			}
		}
	}

	var findings []noallocFinding
	reported := make(map[string]bool)
	for _, root := range roots {
		visited := make(map[string]bool)
		var walk func(fi *funcInfo)
		walk = func(fi *funcInfo) {
			if visited[fi.key] {
				return
			}
			visited[fi.key] = true
			for _, site := range fi.allocs {
				if lineEscaped(fi.pkg, site.File, site.Line, "alloc-ok") {
					continue
				}
				dedupe := root.key + "\x00" + site.File + fmt.Sprint(site.Line, site.Col)
				if reported[dedupe] {
					continue
				}
				reported[dedupe] = true
				via := ""
				if fi != root {
					via = fmt.Sprintf(" (in %s, called from it)", fi.decl.Name.Name)
				}
				findings = append(findings, noallocFinding{
					pos: token.Position{Filename: site.File, Line: site.Line, Column: site.Col},
					msg: fmt.Sprintf("heap allocation on //nabbit:noalloc path %s%s: %s (//nabbit:alloc-ok to override)",
						root.decl.Name.Name, via, site.Msg),
				})
			}
			for _, calleeKey := range fi.callees {
				callee, ok := index.byKey[calleeKey]
				if !ok || callee.allocOK {
					continue // out of module, or a declared cold path
				}
				walk(callee)
			}
		}
		walk(root)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return findings, nil
}

// lineEscaped checks a package's directives for an escape on the given
// line or the line above.
func lineEscaped(pkg *Package, file string, line int, name string) bool {
	lines := pkg.dirs.byLine[file]
	if lines == nil {
		return false
	}
	for _, ln := range []int{line, line - 1} {
		for _, n := range lines[ln] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// funcIndex maps function keys to declarations and file lines to
// enclosing declarations.
type funcIndex struct {
	byKey     map[string]*funcInfo
	intervals map[string][]*funcInterval // file -> sorted by start line
}

type funcInterval struct {
	start, end int
	fi         *funcInfo
}

func (ix *funcIndex) enclosing(file string, line int) *funcInfo {
	ivs := ix.intervals[file]
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].start > line })
	if i == 0 {
		return nil
	}
	if iv := ivs[i-1]; line <= iv.end {
		return iv.fi
	}
	return nil
}

func buildFuncIndex(prog *Program) *funcIndex {
	ix := &funcIndex{
		byKey:     make(map[string]*funcInfo),
		intervals: make(map[string][]*funcInterval),
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fi := &funcInfo{
					pkg:  pkg,
					decl: fd,
					key:  funcKey(pkg.ImportPath, recvTypeName(fd), fd.Name.Name),
				}
				_, fi.noalloc = funcDirective(prog.Fset, pkg.dirs, fd, "noalloc")
				_, fi.allocOK = funcDirective(prog.Fset, pkg.dirs, fd, "alloc-ok")
				fi.callees = collectCallees(pkg, fd, prog)
				ix.byKey[fi.key] = fi
				pos := prog.Fset.Position(fd.Pos())
				end := prog.Fset.Position(fd.End())
				ix.intervals[pos.Filename] = append(ix.intervals[pos.Filename],
					&funcInterval{start: pos.Line, end: end.Line, fi: fi})
			}
		}
	}
	for _, ivs := range ix.intervals {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	}
	return ix
}

// recvTypeName extracts the receiver's base type name syntactically
// ("Block" from (d *Block[T])), which matches the name derived from a
// *types.Func origin on the use side.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// collectCallees resolves the statically known callees of fd that live
// in the loaded program's packages.
func collectCallees(pkg *Package, fd *ast.FuncDecl, prog *Program) []string {
	seen := make(map[string]bool)
	var out []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			obj = pkg.Info.Uses[fun]
		case *ast.SelectorExpr:
			obj = pkg.Info.Uses[fun.Sel]
		default:
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return true // conversion, builtin, or func-valued variable
		}
		fn = fn.Origin()
		fpkg := fn.Pkg()
		if fpkg == nil {
			return true
		}
		if _, loaded := prog.byPath[fpkg.Path()]; !loaded {
			return true // stdlib or out-of-program: not followed
		}
		recv := ""
		if r := fn.Signature().Recv(); r != nil {
			named := namedOf(r.Type())
			if named == nil {
				return true // interface method: dynamic dispatch, not followed
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				return true
			}
			recv = named.Obj().Name()
		}
		key := funcKey(fpkg.Path(), recv, fn.Name())
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
		return true
	})
	sort.Strings(out)
	return out
}
