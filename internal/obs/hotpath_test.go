package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestHotPathTakesNoLock holds the package's lock-freedom contract: the
// instrument calls every query makes may run while pagefile shard locks are
// held, so none of them — nor any package function or method they reach —
// may take a lock, except span recording, which takes only the trace's own
// t.mu (terminal: it never nests with engine locks). Calls are resolved by
// name, so a method call reaches every package method of that name: an
// over-approximation that can fail spuriously but never pass wrongly.
func TestHotPathTakesNoLock(t *testing.T) {
	hot := map[string][]string{ // function → the locks it may take
		"Counter.Inc": nil, "Gauge.Set": nil, "Histogram.Observe": nil,
		"Sampler.Sample": nil, "Trace.Begin": nil, "TraceFrom": nil, "WithTrace": nil,
		"Trace.End": {"t.mu"}, "Trace.Spans": {"t.mu"},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]*ast.FuncDecl{} // "Type.Method" or "Func"
	byName := map[string][]string{}     // bare name → decls keys
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				key = types.ExprString(recv) + "." + key
			}
			decls[key] = fd
			byName[fd.Name.Name] = append(byName[fd.Name.Name], key)
		}
	}

	for fn, allowed := range hot {
		if decls[fn] == nil {
			t.Errorf("hot-path %s is no longer declared in package obs: update this test", fn)
			continue
		}
		seen := map[string]bool{}
		var visit func(key string)
		visit = func(key string) {
			if seen[key] {
				return
			}
			seen[key] = true
			ast.Inspect(decls[key].Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
					if slices.Contains([]string{"Lock", "RLock", "TryLock", "TryRLock"}, name) {
						if lock := types.ExprString(fun.X); !slices.Contains(allowed, lock) {
							t.Errorf("hot-path %s reaches %s, which calls %s.%s()", fn, key, lock, name)
						}
						return true
					}
				}
				for _, callee := range byName[name] {
					visit(callee)
				}
				return true
			})
		}
		visit(fn)
	}
}
