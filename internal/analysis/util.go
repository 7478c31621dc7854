package analysis

import (
	"go/ast"
	"go/types"
)

// Shared AST/type helpers used by several analyzers. Matching is mostly
// nominal (type names, field names, method names) rather than by object
// identity against the real tree packages: that keeps every analyzer
// testable on small self-contained fixtures that merely mirror the shapes,
// exactly like the upstream vet passes match e.g. any type named
// "testing.T" lookalike they are configured with.

// funcDecls yields every function declaration with a body in the package.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// calleeSelector decomposes a call of the form recv.Name(...) and returns
// the selector; ok is false for plain function calls and conversions.
func calleeSelector(call *ast.CallExpr) (*ast.SelectorExpr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return sel, ok
}

// namedType unwraps pointers and aliases and returns the named type of t,
// or nil (e.g. for unnamed structs and basic types).
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// retainsReferences reports whether a value of type t can keep other heap
// objects alive: pointers, interfaces, funcs, maps, channels, and slices or
// structs containing such. Slices of pure scalars ([]float64, []byte) are
// deliberately NOT counted — the pool discipline keeps scalar scratch
// buffers across Put to retain capacity.
func retainsReferences(t types.Type) bool {
	return retains(t, 0)
}

func retains(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return false
	}
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok {
		return retains(n.Underlying(), depth+1)
	}
	switch u := t.(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Map, *types.Chan:
		return true
	case *types.Slice:
		return retains(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if retains(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return retains(u.Elem(), depth+1)
	}
	return false
}
