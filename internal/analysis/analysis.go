package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static analysis and how to run it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// directives. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph documentation: first sentence states the
	// invariant, the rest explains why it exists and how to suppress.
	Doc string
	// Run applies the analysis to one package and reports diagnostics via
	// pass.Report. The returned error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with the type-checked syntax of one package
// and accumulates the diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: msg})
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// TypeOf returns the type of e, or nil when the type checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object denoted by identifier id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return p.TypesInfo.Uses[id]
}

// RunAnalyzers applies every analyzer to pkg and returns the diagnostics
// sorted by position. Suppression directives are applied by the caller
// (Filter), so tests can also assert on suppressed findings.
//
// Test files are excluded: the suite enforces production invariants, and
// tests legitimately call context.Background(), publish unlogged snapshots
// on throwaway trees, and so on. (go vet hands the checker test compilation
// units too, so the exclusion must live here, not in the driver.)
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	files := make([]*ast.File, 0, len(pkg.Syntax))
	for _, f := range pkg.Syntax {
		if !strings.HasSuffix(pkg.Fset.Position(f.FileStart).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	fset := pkg.Fset
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}
