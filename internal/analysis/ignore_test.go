package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestFilterDirectives pins down the suppression contract: a well-formed
// //lint:ignore on the flagged line or the line directly above silences
// exactly the named analyzers, and a directive without a reason is itself
// reported under the pseudo-analyzer "lintdirective".
func TestFilterDirectives(t *testing.T) {
	src := `package p

func a() {} //lint:ignore ctxflow the invariant holds because this fixture says so

//lint:ignore poolreset,errwrap reason covering two analyzers
func b() {}

func c() {}

//lint:ignore errwrap
func d() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Fset: fset, Syntax: []*ast.File{f}}

	pos := map[string]token.Pos{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			pos[fd.Name.Name] = fd.Pos()
		}
	}

	diags := []Diagnostic{
		{Pos: pos["a"], Analyzer: "ctxflow", Message: "same-line directive"},
		{Pos: pos["a"], Analyzer: "poolreset", Message: "directive names another analyzer"},
		{Pos: pos["b"], Analyzer: "poolreset", Message: "line-above directive, first name"},
		{Pos: pos["b"], Analyzer: "errwrap", Message: "line-above directive, second name"},
		{Pos: pos["c"], Analyzer: "ctxflow", Message: "no directive near this line"},
	}
	out := Filter(pkg, diags)

	var kept, malformed []string
	for _, d := range out {
		if d.Analyzer == "lintdirective" {
			malformed = append(malformed, d.Message)
		} else {
			kept = append(kept, d.Message)
		}
	}
	if len(kept) != 2 || kept[0] != "directive names another analyzer" || kept[1] != "no directive near this line" {
		t.Errorf("surviving diagnostics = %q; want the non-matching and undirected ones only", kept)
	}
	if len(malformed) != 1 {
		t.Fatalf("got %d lintdirective findings, want 1 (the reason-less directive above d)", len(malformed))
	}
}
