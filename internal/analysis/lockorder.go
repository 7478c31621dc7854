package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces the documented lock hierarchy of the storage engine
// (see internal/pagefile.Manager): the facade writer mutex is outermost,
// then ioMu before epochMu before allocMu before a cache shard lock, and
// shard locks are terminal — they never nest with each other and no
// pagefile I/O may run while one is held. The analyzer computes a per-
// function "may acquire / may perform I/O" summary by fixpoint over the
// package call graph, then walks every function lexically with the set of
// currently held ranked locks, reporting any acquisition (direct or via a
// summarized call) that does not strictly increase the rank, any re-
// acquisition of a held lock, and any I/O reachable under a shard lock.
//
// Cross-package calls onto pagefile.Manager are resolved through a built-in
// summary table; when the pagefile package itself is analyzed the computed
// summaries are checked against that table so it cannot silently go stale.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisitions must follow the documented ioMu < epochMu < allocMu < shard-lock order; shard locks are terminal",
	Run:  runLockOrder,
}

// lockRanks orders the tracked locks; lower rank = acquired first. Mutex
// fields not in this table are untracked (local scratch locks, the WAL's
// internal mutex, server admission state).
var lockRanks = map[string]int{
	"index.mu":        0, // facade writer lock (root package; Tree and Sharded embed index)
	"Manager.ioMu":    1,
	"Manager.epochMu": 2,
	"Manager.allocMu": 3,
	"cacheShard.mu":   4, // pagefile buffer-cache shard — terminal
}

const lockOrderDoc = "ioMu < epochMu < allocMu < shard"

// managerLockUse summarizes what each exported pagefile.Manager method
// acquires and whether it touches the backend, for callers outside the
// pagefile package. Kept honest by a drift check: analyzing the pagefile
// package itself recomputes the summaries from source and reports any
// mismatch with this table.
var managerLockUse = map[string]funcEffects{
	"Allocate":      {acquires: []string{"Manager.allocMu"}},
	"Free":          {acquires: []string{"Manager.allocMu", "cacheShard.mu"}},
	"FreeDeferred":  {acquires: []string{"Manager.allocMu", "Manager.epochMu", "cacheShard.mu"}},
	"Read":          {acquires: []string{"Manager.ioMu", "cacheShard.mu"}, doesIO: true},
	"ReadCounted":   {acquires: []string{"Manager.ioMu", "cacheShard.mu"}, doesIO: true},
	"ReadDecoded":   {acquires: []string{"Manager.ioMu", "cacheShard.mu"}, doesIO: true},
	"VerifyPage":    {acquires: []string{"Manager.ioMu"}, doesIO: true},
	"Write":         {acquires: []string{"Manager.ioMu", "cacheShard.mu"}, doesIO: true},
	"WriteDecoded":  {acquires: []string{"Manager.ioMu", "cacheShard.mu"}, doesIO: true},
	"CommitMeta":    {acquires: []string{"Manager.ioMu", "Manager.epochMu", "Manager.allocMu", "cacheShard.mu"}, doesIO: true},
	"Sync":          {acquires: []string{"Manager.ioMu"}, doesIO: true},
	"Close":         {acquires: []string{"Manager.ioMu"}, doesIO: true},
	"Meta":          {acquires: []string{"Manager.ioMu"}},
	"DropCache":     {acquires: []string{"Manager.ioMu", "cacheShard.mu"}},
	"CachedPages":   {acquires: []string{"cacheShard.mu"}},
	"PinEpoch":      {acquires: []string{"Manager.epochMu"}},
	"UnpinEpoch":    {acquires: []string{"Manager.epochMu", "Manager.allocMu", "cacheShard.mu"}},
	"AdvanceEpoch":  {acquires: []string{"Manager.epochMu", "Manager.allocMu", "cacheShard.mu"}},
	"Epoch":         {acquires: []string{"Manager.epochMu"}},
	"PinnedReaders": {acquires: []string{"Manager.epochMu"}},
	"OldestPin":     {acquires: []string{"Manager.epochMu"}},
	"LimboPages":    {acquires: []string{"Manager.epochMu"}},
}

// funcEffects is the may-acquire / may-do-I/O summary of one function.
type funcEffects struct {
	acquires []string
	doesIO   bool
}

func (e *funcEffects) addLock(id string) bool {
	for _, a := range e.acquires {
		if a == id {
			return false
		}
	}
	e.acquires = append(e.acquires, id)
	return true
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrderPass{pass: pass, summaries: map[*types.Func]*funcEffects{}}
	decls := funcDecls(pass.Files)
	lo.buildSummaries(decls)
	lo.checkSummaryDrift(decls)
	for _, fn := range decls {
		lo.walkFunc(fn)
	}
	return nil
}

type lockOrderPass struct {
	pass      *Pass
	summaries map[*types.Func]*funcEffects
}

// --- lock-operation matching ---------------------------------------------

// lockOp is a direct mutex operation on a ranked lock.
type lockOp struct {
	id      string
	rank    int
	acquire bool
}

// matchLockOp matches x.<field>.Lock/RLock/TryLock/Unlock/RUnlock() where
// the field is a sync.Mutex/RWMutex and <owner type>.<field> is ranked.
func (lo *lockOrderPass) matchLockOp(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := calleeSelector(call)
	if !ok {
		return lockOp{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockOp{}, false
	}
	mutex, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	mt := lo.pass.TypeOf(mutex)
	if !isNamed(mt, "sync", "Mutex") && !isNamed(mt, "sync", "RWMutex") {
		return lockOp{}, false
	}
	owner := typeName(lo.pass.TypeOf(mutex.X))
	if owner == "" {
		return lockOp{}, false
	}
	id := owner + "." + mutex.Sel.Name
	rank, ranked := lockRanks[id]
	if !ranked {
		return lockOp{}, false
	}
	return lockOp{id: id, rank: rank, acquire: acquire}, true
}

// calleeEffects resolves the may-acquire summary of a call: same-package
// functions via the computed fixpoint, cross-package pagefile.Manager
// methods via the built-in table.
func (lo *lockOrderPass) calleeEffects(call *ast.CallExpr) *funcEffects {
	obj := lo.calleeFunc(call)
	if obj == nil {
		return nil
	}
	if s, ok := lo.summaries[obj]; ok {
		return s
	}
	if obj.Pkg() != nil && obj.Pkg() != lo.pass.Pkg && obj.Pkg().Name() == "pagefile" {
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil && typeName(recv.Type()) == "Manager" {
			if eff, ok := managerLockUse[obj.Name()]; ok {
				return &eff
			}
		}
	}
	return nil
}

func (lo *lockOrderPass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := lo.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// isBackendIO matches method calls on the pagefile storage backend
// interface (the page I/O boundary).
func (lo *lockOrderPass) isBackendIO(call *ast.CallExpr) bool {
	sel, ok := calleeSelector(call)
	if !ok {
		return false
	}
	t := lo.pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if _, isIface := t.Underlying().(*types.Interface); !isIface {
		return false
	}
	return typeName(t) == "Backend"
}

// --- summary fixpoint -----------------------------------------------------

func (lo *lockOrderPass) buildSummaries(decls []*ast.FuncDecl) {
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, fn := range decls {
		if obj, ok := lo.pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
			bodies[obj] = fn
			lo.summaries[obj] = &funcEffects{}
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			sum := lo.summaries[obj]
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op, ok := lo.matchLockOp(call); ok && op.acquire {
					changed = sum.addLock(op.id) || changed
					return true
				}
				if lo.isBackendIO(call) && !sum.doesIO {
					sum.doesIO = true
					changed = true
					return true
				}
				if callee := lo.calleeEffects(call); callee != nil && callee != sum {
					for _, id := range callee.acquires {
						changed = sum.addLock(id) || changed
					}
					if callee.doesIO && !sum.doesIO {
						sum.doesIO = true
						changed = true
					}
				}
				return true
			})
		}
	}
}

// checkSummaryDrift verifies the built-in Manager table against the
// summaries computed from source whenever the analyzed package defines
// pagefile.Manager itself.
func (lo *lockOrderPass) checkSummaryDrift(decls []*ast.FuncDecl) {
	if lo.pass.Pkg.Name() != "pagefile" {
		return
	}
	for obj, sum := range lo.summaries {
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil || typeName(recv.Type()) != "Manager" || !obj.Exported() {
			continue
		}
		want, ok := managerLockUse[obj.Name()]
		if !ok {
			if len(sum.acquires) > 0 || sum.doesIO {
				lo.reportDrift(decls, obj, sum)
			}
			continue
		}
		if !sameEffects(want, *sum) {
			lo.reportDrift(decls, obj, sum)
		}
	}
}

func (lo *lockOrderPass) reportDrift(decls []*ast.FuncDecl, obj *types.Func, sum *funcEffects) {
	for _, fn := range decls {
		if lo.pass.TypesInfo.Defs[fn.Name] == obj {
			lo.pass.Reportf(fn.Name.Pos(),
				"lock summary of Manager.%s drifted from the analyzer's built-in table (now acquires %s, io=%v): update managerLockUse in internal/analysis/lockorder.go",
				obj.Name(), fmtLockSet(sum.acquires), sum.doesIO)
			return
		}
	}
}

func sameEffects(a, b funcEffects) bool {
	if a.doesIO != b.doesIO || len(a.acquires) != len(b.acquires) {
		return false
	}
	as, bs := append([]string(nil), a.acquires...), append([]string(nil), b.acquires...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func fmtLockSet(ids []string) string {
	if len(ids) == 0 {
		return "nothing"
	}
	s := append([]string(nil), ids...)
	sort.Strings(s)
	return strings.Join(s, ", ")
}

// --- lexical held-set walk ------------------------------------------------

type heldLock struct {
	id   string
	rank int
}

func (lo *lockOrderPass) walkFunc(fn *ast.FuncDecl) {
	lo.walkStmts(fn.Body.List, nil)
}

// walkStmts interprets a statement list with the currently held ranked
// locks and returns the held set at its end.
func (lo *lockOrderPass) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range stmts {
		held = lo.walkStmt(s, held)
	}
	return held
}

func (lo *lockOrderPass) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return lo.walkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			held = lo.walkExpr(r, held)
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = lo.walkExpr(r, held)
		}
		return held
	case *ast.DeferStmt:
		// A deferred Unlock releases at function end, not here: the lock
		// stays held for the remainder of the walk, which is exactly the
		// region it protects. Deferred calls other than unlocks run with
		// whatever is held at return; approximating with the current held
		// set is close enough for ordering checks.
		if op, ok := lo.matchLockOp(s.Call); ok && !op.acquire {
			return held
		}
		return lo.walkExpr(s.Call, held)
	case *ast.GoStmt:
		// The goroutine body starts on its own stack with nothing held.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			lo.walkStmts(lit.Body.List, nil)
		}
		return held
	case *ast.BlockStmt:
		return lo.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = lo.walkStmt(s.Init, held)
		}
		held = lo.walkExpr(s.Cond, held)
		thenHeld, thenExits := lo.walkBranch(s.Body.List, held)
		elseHeld, elseExits := held, false
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseHeld, elseExits = lo.walkBranch(e.List, held)
			default:
				elseHeld, elseExits = lo.walkBranch([]ast.Stmt{s.Else}, held)
			}
		}
		return mergeHeld(thenHeld, thenExits, elseHeld, elseExits, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = lo.walkStmt(s.Init, held)
		}
		lo.walkBranch(s.Body.List, held)
		return held
	case *ast.RangeStmt:
		lo.walkBranch(s.Body.List, held)
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		for _, list := range childStmtLists(s) {
			lo.walkBranch(list, held)
		}
		return held
	case *ast.LabeledStmt:
		return lo.walkStmt(s.Stmt, held)
	default:
		return held
	}
}

// walkBranch interprets a branch and reports whether every path exits.
func (lo *lockOrderPass) walkBranch(stmts []ast.Stmt, held []heldLock) ([]heldLock, bool) {
	h := append([]heldLock(nil), held...)
	exits := false
	for _, s := range stmts {
		h = lo.walkStmt(s, h)
		switch t := s.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			exits = true
		case *ast.ExprStmt:
			if isPanicCall(t.X) {
				exits = true
			}
		}
		if exits {
			break
		}
	}
	return h, exits
}

// mergeHeld joins the held sets of the fall-through branches of an if:
// a lock counts as held afterwards when any non-exiting branch leaves it
// held (conservative union).
func mergeHeld(thenHeld []heldLock, thenExits bool, elseHeld []heldLock, elseExits bool, orig []heldLock) []heldLock {
	switch {
	case thenExits && elseExits:
		return orig
	case thenExits:
		return elseHeld
	case elseExits:
		return thenHeld
	}
	merged := append([]heldLock(nil), thenHeld...)
	for _, h := range elseHeld {
		found := false
		for _, m := range merged {
			if m.id == h.id {
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, h)
		}
	}
	return merged
}

// walkExpr processes the calls inside one expression left to right and
// returns the updated held set.
func (lo *lockOrderPass) walkExpr(e ast.Expr, held []heldLock) []heldLock {
	var calls []*ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run later, on their own held set
		}
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	// Inspect is pre-order; nested calls evaluate before their parents, but
	// for lock tracking lexical order is the documented approximation.
	for _, call := range calls {
		held = lo.applyCall(call, held)
	}
	return held
}

func (lo *lockOrderPass) applyCall(call *ast.CallExpr, held []heldLock) []heldLock {
	if op, ok := lo.matchLockOp(call); ok {
		if op.acquire {
			return lo.acquire(call, op, held)
		}
		return releaseHeld(held, op.id)
	}
	maxRank, maxID := maxHeldRank(held)
	if lo.isBackendIO(call) && maxRank >= 4 {
		lo.pass.Reportf(call.Pos(), "pagefile backend I/O while holding shard lock %s: shard locks are terminal and must not cover I/O", maxID)
		return held
	}
	if eff := lo.calleeEffects(call); eff != nil {
		if eff.doesIO && maxRank >= 4 {
			lo.pass.Reportf(call.Pos(), "call performs pagefile I/O while shard lock %s is held: shard locks are terminal and must not cover I/O", maxID)
		}
		for _, id := range eff.acquires {
			rank := lockRanks[id]
			for _, h := range held {
				if h.id == id {
					lo.pass.Reportf(call.Pos(), "call re-acquires %s which is already held (self-deadlock)", id)
				} else if rank <= h.rank {
					lo.pass.Reportf(call.Pos(), "call acquires %s (rank %d) while %s (rank %d) is held: violates lock order %s", id, rank, h.id, h.rank, lockOrderDoc)
				}
			}
		}
	}
	return held
}

func (lo *lockOrderPass) acquire(call *ast.CallExpr, op lockOp, held []heldLock) []heldLock {
	for _, h := range held {
		if h.id == op.id {
			lo.pass.Reportf(call.Pos(), "%s acquired while already held (self-deadlock)", op.id)
			return held
		}
		if op.rank <= h.rank {
			lo.pass.Reportf(call.Pos(), "acquiring %s (rank %d) while holding %s (rank %d) violates lock order %s", op.id, op.rank, h.id, h.rank, lockOrderDoc)
		}
	}
	return append(append([]heldLock(nil), held...), heldLock{id: op.id, rank: op.rank})
}

// maxHeldRank returns the highest rank currently held and its lock id.
func maxHeldRank(held []heldLock) (int, string) {
	rank, id := -1, ""
	for _, h := range held {
		if h.rank > rank {
			rank, id = h.rank, h.id
		}
	}
	return rank, id
}

func releaseHeld(held []heldLock, id string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].id == id {
			return append(append([]heldLock(nil), held[:i]...), held[i+1:]...)
		}
	}
	return held
}
