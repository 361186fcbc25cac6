package analysis

import (
	"go/types"
	"slices"
	"testing"
)

// TestRepoSelfCheck asserts the shipped tree is clean under the full
// nabbitvet suite — the same invariant CI enforces. A failure here means
// a new violation landed without a directive explaining it (or a
// directive was removed without fixing the code).
func TestRepoSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program load and escape analysis; skipped in -short mode")
	}
	prog, err := Load(repoRoot, "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags, err := RunAnalyzers(prog, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo is not nabbitvet-clean: %s", d)
	}
}

// TestCoreStateLayoutPinned pins the node state-word layout: the
// //nabbit:bitfield directive in internal/core must declare exactly the
// documented fields, so a layout change cannot slip through by editing
// the directive and the constants together without touching the docs
// and this test. It pins the Node struct that carries the word the same
// way — field by field, in one 64-byte cache line — so a field added to
// Node fails here rather than silently spilling every task onto a second
// line.
func TestCoreStateLayoutPinned(t *testing.T) {
	prog, err := Load(repoRoot, "./internal/core")
	if err != nil {
		t.Fatalf("loading internal/core: %v", err)
	}
	pkg, ok := prog.PackageByPath("nabbitc/internal/core")
	if !ok {
		t.Fatal("internal/core not loaded")
	}
	var decl *bitfieldDecl
	for _, d := range pkg.dirs.all {
		if d.Name != "bitfield" {
			continue
		}
		bd, err := parseBitfieldArgs(d.Args)
		if err != nil {
			t.Fatalf("%s: malformed bitfield directive: %v", d.Pos, err)
		}
		if bd.word == "state" {
			decl = bd
		}
	}
	if decl == nil {
		t.Fatal("internal/core declares no //nabbit:bitfield word=state directive")
	}
	if decl.width != 32 {
		t.Errorf("state word width = %d, want 32", decl.width)
	}
	want := []bitField{
		{name: "phase", lo: 0, hi: 1},
		{name: "epoch", lo: 2, hi: 30},
		{name: "succlock", lo: 31, hi: 31},
	}
	if len(decl.fields) != len(want) {
		t.Fatalf("state layout has %d fields, want %d: %+v", len(decl.fields), len(want), decl.fields)
	}
	for i, f := range want {
		if decl.fields[i] != f {
			t.Errorf("state field %d = %+v, want %+v", i, decl.fields[i], f)
		}
	}

	obj := pkg.Types.Scope().Lookup("Node")
	if obj == nil {
		t.Fatal("internal/core declares no Node type")
	}
	node, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		t.Fatalf("core.Node is %v, want a struct", obj.Type().Underlying())
	}
	wantFields := []string{
		"key nabbitc/internal/core.Key",
		"preds *nabbitc/internal/core.Key",
		"succs **nabbitc/internal/core.Node",
		"npreds int32",
		"nsuccs int32",
		"csuccs int32",
		"color int32",
		"home int32",
		"predColor int32",
		"predDomain int32",
		"join int32",
		"state sync/atomic.Uint32",
		"_ [4]byte",
	}
	var gotFields []string
	for i := 0; i < node.NumFields(); i++ {
		f := node.Field(i)
		gotFields = append(gotFields, f.Name()+" "+f.Type().String())
	}
	if !slices.Equal(gotFields, wantFields) {
		t.Errorf("core.Node fields changed:\n got  %q\n want %q", gotFields, wantFields)
	}
	if sz := types.SizesFor("gc", "amd64").Sizeof(node); sz != 64 {
		t.Errorf("core.Node is %d bytes on amd64, want one 64-byte cache line", sz)
	}
}

// TestParseBitfieldArgs exercises the directive grammar directly.
func TestParseBitfieldArgs(t *testing.T) {
	good, err := parseBitfieldArgs([]string{"word=w", "width=64", "layout=a:0-7,b:8,c:9-63"})
	if err != nil {
		t.Fatalf("valid directive rejected: %v", err)
	}
	if good.word != "w" || good.width != 64 || len(good.fields) != 3 {
		t.Errorf("parsed %+v from a valid directive", good)
	}
	if f := good.fields[1]; f.name != "b" || f.lo != 8 || f.hi != 8 {
		t.Errorf("single-bit field parsed as %+v, want b:8-8", f)
	}
	for _, bad := range [][]string{
		{"word=w", "layout=a:0"},                          // missing width
		{"word=w", "width=16", "layout=a:0"},              // width not 32/64
		{"word=w", "width=32", "layout=a"},                // field without bits
		{"word=w", "width=32", "layout=a:5-2"},            // high below low
		{"word=w", "width=32", "layout=a:0", "bogus=yes"}, // unknown key
	} {
		if _, err := parseBitfieldArgs(bad); err == nil {
			t.Errorf("malformed directive %v accepted", bad)
		}
	}
}
