// Package analysistest runs an analyzer over small fixture packages and
// checks its diagnostics against `// want "regexp"` comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract on the standard
// library alone.
//
// Fixtures live under <testdata>/src/<path>/*.go. Each fixture package is
// parsed and type-checked offline: standard-library imports resolve through
// the local build cache (`go list -export`), and fixture-to-fixture imports
// resolve against the packages loaded earlier in the same Run call, so a
// fixture can mirror a multi-package shape.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gauss-tree/gausstree/internal/analysis"
)

// Run applies the analyzer to every fixture package path (under
// testdata/src), in order, and reports mismatches between the produced
// diagnostics and the `// want` expectations as test errors. Suppression
// directives (//lint:ignore) are honored, so fixtures can also prove that
// a justified directive silences a finding.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	loaded := map[string]*types.Package{}
	for _, path := range paths {
		pkg, err := loadFixture(fset, testdata, path, loaded)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		loaded[path] = pkg.Types
		diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkExpectations(t, pkg, analysis.Filter(pkg, diags))
	}
}

func loadFixture(fset *token.FileSet, testdata, path string, loaded map[string]*types.Package) (*analysis.Package, error) {
	dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &analysis.Package{PkgPath: path, Dir: dir, Fset: fset}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.GoFiles = append(pkg.GoFiles, full)
		pkg.Syntax = append(pkg.Syntax, f)
	}
	if len(pkg.Syntax) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if fp, ok := loaded[p]; ok {
				return fp, nil
			}
			return importStd(fset, p)
		}),
	}
	tpkg, err := conf.Check(path, fset, pkg.Syntax, info)
	if err != nil {
		return nil, err
	}
	pkg.Types = tpkg
	pkg.TypesInfo = info
	return pkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// --- standard-library imports via the build cache -------------------------

var (
	stdOnce    sync.Once
	stdErr     error
	stdExports map[string]string
	stdImp     = map[*token.FileSet]types.Importer{}
	stdImpMu   sync.Mutex
)

func importStd(fset *token.FileSet, path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	stdOnce.Do(func() { stdExports, stdErr = listStdExports() })
	if stdErr != nil {
		return nil, stdErr
	}
	stdImpMu.Lock()
	imp, ok := stdImp[fset]
	if !ok {
		imp = importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
			f, ok := stdExports[p]
			if !ok {
				return nil, fmt.Errorf("analysistest: fixture imports %q, which is not in the preloaded stdlib set", p)
			}
			return os.Open(f)
		})
		stdImp[fset] = imp
	}
	stdImpMu.Unlock()
	return imp.Import(path)
}

// listStdExports builds the import-path -> export-data index for the
// stdlib packages fixtures may use (and their dependency closure).
func listStdExports() (map[string]string, error) {
	roots := []string{"context", "errors", "fmt", "sync"}
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, roots...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list std roots: %v\n%s", err, stderr.String())
	}
	out := map[string]string{}
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}

// --- want-comment matching ------------------------------------------------

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkExpectations(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	// line key "file:line" -> expectations on that line.
	wants := map[string][]*expectation{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, raw := range splitQuoted(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", key, raw, err)
						continue
					}
					wants[key] = append(wants[key], &expectation{re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s: %s", key, d.Analyzer, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.raw)
			}
		}
	}
}

// splitQuoted extracts the Go-quoted string literals from a want clause:
// `"re one" "re two"`.
func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			break
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' && quote == '"' {
				i++
				continue
			}
			if s[i] == quote {
				end = i
				break
			}
		}
		if end < 0 {
			break
		}
		if unq, err := strconv.Unquote(s[:end+1]); err == nil {
			out = append(out, unq)
		}
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}
