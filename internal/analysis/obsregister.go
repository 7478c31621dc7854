package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// ObsRegister enforces the lock-freedom contract of the observability hot
// path (internal/obs): the instrument methods that run on every query —
// counter/gauge/histogram updates, the sampling decision, span bookmarks —
// are documented as pure atomics, safe to call while pagefile shard locks
// are held. A mutex slipped into one of them would silently serialize every
// instrumented layer. The analyzer fixpoint-computes per-function mutex
// acquisitions over the obs package call graph and checks each hot-path
// method against a built-in allowance table: most entries may acquire
// nothing; Trace span recording may take only the trace-local Trace.mu
// (terminal — it never nests with engine locks). A table entry naming a
// method the package no longer defines is reported too, so the list cannot
// go stale.
var ObsRegister = &Analyzer{
	Name: "obsregister",
	Doc:  "obs hot-path instruments must stay lock-free (Trace span recording may take only its own Trace.mu)",
	Run:  runObsRegister,
}

// obsHotPath maps each obs function on the per-query hot path to the locks
// it is allowed to acquire, directly or transitively (nil = none). Keys are
// "Type.Method" for methods and the bare name for package-level functions.
var obsHotPath = map[string][]string{
	"Counter.Inc":       nil,
	"Gauge.Set":         nil,
	"Histogram.Observe": nil,
	"Sampler.Sample":    nil,
	"Trace.Begin":       nil,
	"TraceFrom":         nil,
	"WithTrace":         nil,
	"Trace.End":         {"Trace.mu"},
	"Trace.Spans":       {"Trace.mu"},
}

func runObsRegister(pass *Pass) error {
	if pass.Pkg.Name() != "obs" {
		return nil
	}
	or := &obsRegisterPass{pass: pass, acquires: map[*types.Func][]string{}}
	decls := funcDecls(pass.Files)
	or.buildSummaries(decls)
	or.checkHotPath(decls)
	return nil
}

type obsRegisterPass struct {
	pass     *Pass
	acquires map[*types.Func][]string
}

// matchAcquire matches a mutex acquisition — x.<field>.Lock/RLock/TryLock()
// on a sync.Mutex/RWMutex field, or <var>.Lock() on a bare mutex — and
// returns its identity ("Owner.field" or the variable name).
func (or *obsRegisterPass) matchAcquire(call *ast.CallExpr) (string, bool) {
	sel, ok := calleeSelector(call)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
	default:
		return "", false
	}
	mt := or.pass.TypeOf(sel.X)
	if !isNamed(mt, "sync", "Mutex") && !isNamed(mt, "sync", "RWMutex") {
		return "", false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if owner := typeName(or.pass.TypeOf(x.X)); owner != "" {
			return owner + "." + x.Sel.Name, true
		}
		return x.Sel.Name, true
	case *ast.Ident:
		return x.Name, true
	}
	return "mutex", true
}

// buildSummaries fixpoints the may-acquire set of every function in the
// package. Cross-package calls are not followed: the obs hot path by
// contract reaches only sync/atomic and the clock, and any same-package
// wrapper that locks is caught here.
func (or *obsRegisterPass) buildSummaries(decls []*ast.FuncDecl) {
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, fn := range decls {
		if obj, ok := or.pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
			bodies[obj] = fn
		}
	}
	add := func(obj *types.Func, id string) bool {
		for _, a := range or.acquires[obj] {
			if a == id {
				return false
			}
		}
		or.acquires[obj] = append(or.acquires[obj], id)
		return true
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := or.matchAcquire(call); ok {
					changed = add(obj, id) || changed
					return true
				}
				if callee := or.calleeFunc(call); callee != nil && callee != obj {
					for _, id := range or.acquires[callee] {
						changed = add(obj, id) || changed
					}
				}
				return true
			})
		}
	}
}

func (or *obsRegisterPass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := or.pass.TypesInfo.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() != or.pass.Pkg {
		return nil
	}
	return fn
}

// checkHotPath compares every hot-path table entry against the computed
// summaries, reporting forbidden acquisitions at the method declaration and
// stale table entries at the package clause.
func (or *obsRegisterPass) checkHotPath(decls []*ast.FuncDecl) {
	found := map[string]bool{}
	for _, fn := range decls {
		obj, ok := or.pass.TypesInfo.Defs[fn.Name].(*types.Func)
		if !ok {
			continue
		}
		key := obj.Name()
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			owner := typeName(recv.Type())
			if owner == "" {
				continue
			}
			key = owner + "." + key
		}
		allowed, hot := obsHotPath[key]
		if !hot {
			continue
		}
		found[key] = true
		for _, id := range or.acquires[obj] {
			if !slices.Contains(allowed, id) {
				or.pass.Reportf(fn.Name.Pos(),
					"obs hot-path %s acquires %s: instrument methods must stay lock-free so they are safe under engine shard locks (allowed here: %s)",
					key, id, fmtAllowed(allowed))
			}
		}
	}
	var missing []string
	for key := range obsHotPath {
		if !found[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		or.pass.Reportf(or.pass.Files[0].Name.Pos(),
			"obsregister hot-path table lists %s, which package obs no longer defines: update obsHotPath in internal/analysis/obsregister.go", key)
	}
}

func fmtAllowed(allowed []string) string {
	if len(allowed) == 0 {
		return "no locks"
	}
	s := append([]string(nil), allowed...)
	sort.Strings(s)
	return strings.Join(s, ", ")
}
