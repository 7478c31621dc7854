package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// Package is one parsed and type-checked package, as a driver (UnitCheck, or
// analysistest for fixtures) hands it to RunAnalyzers.
type Package struct {
	PkgPath   string
	Dir       string
	GoFiles   []string // absolute paths
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// The cmd/go unit-checking protocol (what `go vet -vettool=...` drives):
// for every package, cmd/go writes a JSON config describing the parsed
// package — source files, the import map, and the export-data file of every
// dependency it already compiled — and invokes the tool with that single
// .cfg argument. The tool type-checks the one package, reports findings on
// stderr, writes the (possibly empty) facts file cmd/go told it to, and
// exits 2 when it found something. This mirrors
// golang.org/x/tools/go/analysis/unitchecker without the dependency.

// vetConfig is the subset of cmd/go's vet config the checker consumes.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// UnitCheck runs the analyzers on the single package described by the vet
// config file, printing surviving findings to w. It always writes the
// VetxOutput facts file (empty — the suite exchanges no facts) so cmd/go
// can cache the run.
func UnitCheck(w io.Writer, cfgPath string, analyzers []*Analyzer) (found bool, err error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return false, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return false, fmt.Errorf("parsing vet config %s: %w", cfgPath, err)
	}
	// The facts file must exist even on early exits.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return false, err
		}
	}
	if cfg.VetxOnly {
		return false, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return false, nil
			}
			return false, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			if mapped, ok := cfg.ImportMap[path]; ok {
				path = mapped
			}
			return imp.Import(path)
		}),
	}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return false, nil
		}
		return false, err
	}

	pkg := &Package{
		PkgPath:   cfg.ImportPath,
		Dir:       cfg.Dir,
		GoFiles:   cfg.GoFiles,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}
	diags, err := RunAnalyzers(pkg, analyzers)
	if err != nil {
		return false, err
	}
	for _, d := range Filter(pkg, diags) {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		found = true
	}
	return found, nil
}
