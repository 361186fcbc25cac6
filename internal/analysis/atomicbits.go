package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Atomicbits verifies the packed-word bit layouts the engine's lock-free
// protocols depend on (the node lifecycle word in internal/core, the
// block index word in internal/deque), and polices how code manipulates
// them.
//
// A const block opts in with a directive of the form
//
//	//nabbit:bitfield word=state width=32 layout=phase:0-1,epoch:2-30,succlock:31
//
// attached to (or immediately above) the declaration. The analyzer then
// proves, from the type-checker's exact constant values:
//
//   - the declared fields fit the word width and are pairwise disjoint;
//   - every Mask/Bit constant in the block equals exactly its field's
//     bits (matched by name: the longest field name contained in the
//     constant's name);
//   - every Shift constant equals its field's low bit, every Unit/Inc
//     constant equals 1<<low, and every Max constant equals the field's
//     maximum value;
//   - every declared field is witnessed by at least one constant.
//
// Separately, in any function that touches a declared word (a selector
// on the named field of sync/atomic type), integer literals other than
// 0 and 1 may not appear in bitwise expressions or in the arguments of
// the word's atomic mutators — bit manipulation must go through the
// named constants, so the layout directive stays the single source of
// truth. //nabbit:rawmask-ok on the line (or the line above) escapes a
// deliberate raw literal.
var Atomicbits = &Analyzer{
	Name: "atomicbits",
	Doc: "verify //nabbit:bitfield packed-word layouts against their constants " +
		"and forbid raw literal masks on declared atomic words",
	Run: runAtomicbits,
}

// bitField is one declared field of a packed word.
type bitField struct {
	name   string
	lo, hi int // inclusive bit range
}

func (f bitField) mask(width int) uint64 {
	m := (uint64(1)<<(f.hi-f.lo+1) - 1) << f.lo
	if width < 64 {
		m &= uint64(1)<<width - 1
	}
	return m
}

// bitfieldDecl is one parsed //nabbit:bitfield directive.
type bitfieldDecl struct {
	word   string
	width  int
	fields []bitField
	pos    token.Pos
	decl   *ast.GenDecl
}

func runAtomicbits(pass *Pass) error {
	decls := collectBitfieldDecls(pass)
	words := make(map[string]bool)
	for _, bd := range decls {
		words[bd.word] = true
		checkBitfieldDecl(pass, bd)
	}
	if len(words) > 0 {
		checkRawLiterals(pass, words)
	}
	return nil
}

// collectBitfieldDecls parses every bitfield directive and binds it to
// its const declaration.
func collectBitfieldDecls(pass *Pass) []*bitfieldDecl {
	var out []*bitfieldDecl
	for _, d := range pass.Directives() {
		if d.Name != "bitfield" {
			continue
		}
		bd, err := parseBitfieldArgs(d.Args)
		if err != nil {
			pass.Reportf(directiveTokenPos(pass, d), "malformed //nabbit:bitfield directive: %v", err)
			continue
		}
		decl := constDeclForDirective(pass, d)
		if decl == nil {
			pass.Reportf(directiveTokenPos(pass, d), "//nabbit:bitfield directive is not attached to a const declaration")
			continue
		}
		bd.pos = decl.Pos()
		bd.decl = decl
		out = append(out, bd)
	}
	return out
}

// directiveTokenPos recovers a token.Pos for a directive's position so
// Reportf can use it; falls back to the package's first file.
func directiveTokenPos(pass *Pass, d Directive) token.Pos {
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf != nil && tf.Name() == d.Pos.Filename {
			if d.Pos.Line <= tf.LineCount() {
				return tf.LineStart(d.Pos.Line)
			}
			return f.Pos()
		}
	}
	if len(pass.Files) > 0 {
		return pass.Files[0].Pos()
	}
	return token.NoPos
}

func parseBitfieldArgs(args []string) (*bitfieldDecl, error) {
	bd := &bitfieldDecl{}
	for _, arg := range args {
		key, val, ok := strings.Cut(arg, "=")
		if !ok {
			return nil, fmt.Errorf("argument %q is not key=value", arg)
		}
		switch key {
		case "word":
			bd.word = val
		case "width":
			w, err := strconv.Atoi(val)
			if err != nil || (w != 32 && w != 64) {
				return nil, fmt.Errorf("width must be 32 or 64, got %q", val)
			}
			bd.width = w
		case "layout":
			for _, part := range strings.Split(val, ",") {
				name, rng, ok := strings.Cut(part, ":")
				if !ok {
					return nil, fmt.Errorf("layout field %q is not name:bits", part)
				}
				loS, hiS, isRange := strings.Cut(rng, "-")
				lo, err := strconv.Atoi(loS)
				if err != nil {
					return nil, fmt.Errorf("layout field %q: bad low bit", part)
				}
				hi := lo
				if isRange {
					hi, err = strconv.Atoi(hiS)
					if err != nil {
						return nil, fmt.Errorf("layout field %q: bad high bit", part)
					}
				}
				if hi < lo {
					return nil, fmt.Errorf("layout field %q: high bit below low bit", part)
				}
				bd.fields = append(bd.fields, bitField{name: strings.ToLower(name), lo: lo, hi: hi})
			}
		default:
			return nil, fmt.Errorf("unknown argument %q", key)
		}
	}
	if bd.word == "" || bd.width == 0 || len(bd.fields) == 0 {
		return nil, fmt.Errorf("word=, width= and layout= are all required")
	}
	return bd, nil
}

// constDeclForDirective finds the const declaration the directive is
// attached to: the directive sits inside the declaration's doc comment
// or on the line immediately above the declaration.
func constDeclForDirective(pass *Pass, d Directive) *ast.GenDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			start := pass.Fset.Position(gd.Pos())
			if start.Filename != d.Pos.Filename {
				continue
			}
			docStart := start.Line - 1
			if gd.Doc != nil {
				docStart = pass.Fset.Position(gd.Doc.Pos()).Line - 1
			}
			if d.Pos.Line >= docStart && d.Pos.Line < start.Line {
				return gd
			}
		}
	}
	return nil
}

// checkBitfieldDecl proves the declared layout and verifies every
// constant in the block against it.
func checkBitfieldDecl(pass *Pass, bd *bitfieldDecl) {
	// Field sanity: in range, pairwise disjoint.
	var union uint64
	for _, f := range bd.fields {
		if f.hi >= bd.width {
			pass.Reportf(bd.pos, "bitfield %s: field %s bits %d-%d exceed the %d-bit word",
				bd.word, f.name, f.lo, f.hi, bd.width)
			return
		}
		m := f.mask(bd.width)
		if union&m != 0 {
			pass.Reportf(bd.pos, "bitfield %s: field %s bits %d-%d overlap another declared field",
				bd.word, f.name, f.lo, f.hi)
			return
		}
		union |= m
	}

	witnessed := make(map[string]bool)
	for _, spec := range bd.decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			obj, ok := pass.Info.Defs[name].(*types.Const)
			if !ok {
				continue
			}
			val, exact := constant.Uint64Val(constant.ToInt(obj.Val()))
			if !exact {
				continue
			}
			base, role := constRole(name.Name)
			if role == "" {
				continue // not a layout constant (e.g. a size or a count)
			}
			f, ok := fieldForConst(bd.fields, base)
			if !ok {
				pass.Reportf(name.Pos(), "bitfield %s: constant %s matches no declared field in layout",
					bd.word, name.Name)
				continue
			}
			witnessed[f.name] = true
			fm := f.mask(bd.width)
			switch role {
			case "mask", "bit":
				if val != fm {
					pass.Reportf(name.Pos(), "bitfield %s: %s = %#x does not equal field %s's bits %d-%d (%#x)",
						bd.word, name.Name, val, f.name, f.lo, f.hi, fm)
				}
			case "shift":
				if val != uint64(f.lo) {
					pass.Reportf(name.Pos(), "bitfield %s: %s = %d does not equal field %s's low bit %d",
						bd.word, name.Name, val, f.name, f.lo)
				}
			case "unit", "inc":
				if val != uint64(1)<<f.lo {
					pass.Reportf(name.Pos(), "bitfield %s: %s = %#x does not equal 1<<%d, field %s's unit",
						bd.word, name.Name, val, f.lo, f.name)
				}
			case "max":
				if val != fm>>f.lo {
					pass.Reportf(name.Pos(), "bitfield %s: %s = %d does not equal field %s's maximum %d",
						bd.word, name.Name, val, f.name, fm>>f.lo)
				}
			}
		}
	}
	for _, f := range bd.fields {
		if !witnessed[f.name] {
			pass.Reportf(bd.pos, "bitfield %s: declared field %s (bits %d-%d) has no Mask/Bit/Shift/Unit/Inc/Max constant",
				bd.word, f.name, f.lo, f.hi)
		}
	}
}

// constRole classifies a constant by name suffix, returning the base
// name (for field matching) and its role.
func constRole(name string) (base, role string) {
	for _, suffix := range []string{"Mask", "Bit", "Shift", "Unit", "Inc", "Max"} {
		if strings.HasSuffix(name, suffix) && len(name) > len(suffix) {
			return strings.ToLower(strings.TrimSuffix(name, suffix)), strings.ToLower(suffix)
		}
	}
	return "", ""
}

// fieldForConst matches a constant's base name to the longest declared
// field name it contains.
func fieldForConst(fields []bitField, base string) (bitField, bool) {
	sorted := make([]bitField, len(fields))
	copy(sorted, fields)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i].name) > len(sorted[j].name) })
	for _, f := range sorted {
		if strings.Contains(base, f.name) {
			return f, true
		}
	}
	return bitField{}, false
}

// atomicMutators are the sync/atomic methods whose arguments feed bits
// into a word.
var atomicMutators = map[string]bool{
	"Store": true, "CompareAndSwap": true, "Swap": true,
	"Add": true, "And": true, "Or": true,
}

// checkRawLiterals enforces named-constant-only bit manipulation in
// functions that touch a declared word.
func checkRawLiterals(pass *Pass, words map[string]bool) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !touchesTrackedWord(pass, fd.Body, words) {
				continue
			}
			flagged := make(map[token.Pos]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isTrackedMutatorCall(pass, n, words) {
						for _, arg := range n.Args {
							flagLiterals(pass, arg, flagged)
						}
					}
				case *ast.BinaryExpr:
					switch n.Op {
					case token.AND, token.OR, token.XOR, token.AND_NOT:
						flagBitwiseOperand(pass, n.X, flagged)
						flagBitwiseOperand(pass, n.Y, flagged)
					}
				}
				return true
			})
		}
	}
}

// touchesTrackedWord reports whether the body selects a tracked word
// field of sync/atomic type.
func touchesTrackedWord(pass *Pass, body *ast.BlockStmt, words map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !words[sel.Sel.Name] {
			return true
		}
		if isAtomicField(pass, sel) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isAtomicField reports whether sel resolves to a struct field whose
// type is declared in sync/atomic.
func isAtomicField(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	named, ok := s.Obj().Type().(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// isTrackedMutatorCall reports whether call is word.Mutator(...) on a
// tracked word.
func isTrackedMutatorCall(pass *Pass, call *ast.CallExpr, words map[string]bool) bool {
	method, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !atomicMutators[method.Sel.Name] {
		return false
	}
	recv, ok := method.X.(*ast.SelectorExpr)
	if !ok || !words[recv.Sel.Name] {
		return false
	}
	return isAtomicField(pass, recv)
}

// flagLiterals reports every integer literal other than 0 and 1 in the
// expression tree.
func flagLiterals(pass *Pass, e ast.Expr, flagged map[token.Pos]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.INT {
			return true
		}
		flagLiteral(pass, lit, flagged)
		return true
	})
}

// flagBitwiseOperand reports an immediate bitwise operand that is a raw
// literal, or the literal parts of a shift operand (1<<5 and friends —
// the shift amount is a raw bit position).
func flagBitwiseOperand(pass *Pass, e ast.Expr, flagged map[token.Pos]bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if e.Kind == token.INT {
			flagLiteral(pass, e, flagged)
		}
	case *ast.BinaryExpr:
		if e.Op == token.SHL || e.Op == token.SHR {
			if lit, ok := ast.Unparen(e.Y).(*ast.BasicLit); ok && lit.Kind == token.INT {
				// A literal shift amount is a raw bit position regardless
				// of value.
				if !flagged[lit.Pos()] && !pass.Escaped(lit.Pos(), "rawmask-ok") {
					flagged[lit.Pos()] = true
					pass.Reportf(lit.Pos(), "raw literal shift amount %s on a declared bit word; use the named layout constants (//nabbit:rawmask-ok to override)", lit.Value)
				}
			}
			if lit, ok := ast.Unparen(e.X).(*ast.BasicLit); ok && lit.Kind == token.INT {
				flagLiteral(pass, lit, flagged)
			}
		}
	}
}

func flagLiteral(pass *Pass, lit *ast.BasicLit, flagged map[token.Pos]bool) {
	if lit.Value == "0" || lit.Value == "1" || flagged[lit.Pos()] {
		return
	}
	if pass.Escaped(lit.Pos(), "rawmask-ok") {
		return
	}
	flagged[lit.Pos()] = true
	pass.Reportf(lit.Pos(), "raw literal mask %s on a declared bit word; use the named layout constants (//nabbit:rawmask-ok to override)", lit.Value)
}
