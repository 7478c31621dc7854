package analysis

import (
	"go/ast"
)

// Release-on-all-paths checking for epochorder (an epoch pin must be
// unpinned on every return path). The walker is a small lexical abstract
// interpreter over statement lists: it tracks a single boolean
// held/released state, merges branches conservatively (released only when
// every fall-through branch released), and treats loop bodies as possibly
// skipped. It reports every return statement reachable with the resource
// still held, and the function end when a void function can fall off the
// end still holding it.

type releaseChecker struct {
	// isRelease reports whether an expression releases the resource
	// (e.g. a call of UnpinEpoch with the right argument, or of the
	// cancel variable).
	isRelease func(ast.Expr) bool
	// report receives the position of each leaking return.
	report func(ast.Node)
}

// check walks the function body that contains the acquire statement. Any
// defer whose call (or closure body) releases satisfies the whole
// obligation. Returns true when at least one leak was reported.
func (c *releaseChecker) check(body *ast.BlockStmt, acquire ast.Stmt) bool {
	// A deferred release covers every return path at once.
	deferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if c.isRelease(d.Call) || c.exprContainsRelease(d.Call) {
				deferred = true
			}
		}
		return !deferred
	})
	if deferred {
		return false
	}

	chain, ok := findStmtChain(body, acquire)
	if !ok {
		return false
	}
	leaked := false
	reportOnce := c.report
	c.report = func(n ast.Node) { leaked = true; reportOnce(n) }
	defer func() { c.report = reportOnce }()

	// Scan the suffix of the innermost list after the acquire; while the
	// resource is neither released nor every path exited, the obligation
	// propagates outward to the suffix of each enclosing list.
	released, exited := false, false
	for i := len(chain) - 1; i >= 0 && !released && !exited; i-- {
		released, exited = c.scanList(chain[i].list[chain[i].index+1:], released)
	}
	if !released && !exited {
		// Fell off the end of the function still holding the resource.
		c.report(body)
	}
	return leaked
}

// stmtRef locates one statement inside its enclosing list.
type stmtRef struct {
	list  []ast.Stmt
	index int
}

// findStmtChain returns the chain of (list, index) pairs from the function
// body down to the statement target, outermost first.
func findStmtChain(body *ast.BlockStmt, target ast.Stmt) ([]stmtRef, bool) {
	var walk func(list []ast.Stmt) ([]stmtRef, bool)
	walk = func(list []ast.Stmt) ([]stmtRef, bool) {
		for i, s := range list {
			if s == target {
				return []stmtRef{{list, i}}, true
			}
			if target.Pos() < s.Pos() || target.End() > s.End() {
				continue
			}
			for _, inner := range childStmtLists(s) {
				if chain, ok := walk(inner); ok {
					return append([]stmtRef{{list, i}}, chain...), true
				}
			}
		}
		return nil, false
	}
	return walk(body.List)
}

func childStmtLists(s ast.Stmt) [][]ast.Stmt {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{s.List}
	case *ast.IfStmt:
		out := [][]ast.Stmt{s.Body.List}
		if s.Else != nil {
			out = append(out, childStmtLists(s.Else)...)
		}
		return out
	case *ast.ForStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.SwitchStmt:
		return clauseLists(s.Body)
	case *ast.TypeSwitchStmt:
		return clauseLists(s.Body)
	case *ast.SelectStmt:
		var out [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
		return out
	case *ast.LabeledStmt:
		return childStmtLists(s.Stmt)
	}
	return nil
}

func clauseLists(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

// scanList interprets one statement list; returns the state after it and
// whether every control path through it exited (returned or panicked).
func (c *releaseChecker) scanList(stmts []ast.Stmt, released bool) (rel, exited bool) {
	for _, s := range stmts {
		released, exited = c.scanStmt(s, released)
		if exited {
			return released, true
		}
	}
	return released, false
}

func (c *releaseChecker) scanStmt(s ast.Stmt, released bool) (rel, exited bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		if !released {
			c.report(s)
		}
		return released, true
	case *ast.BranchStmt:
		// break/continue/goto: end this path without reporting; the loop
		// conservatively keeps the pre-loop state anyway.
		return released, true
	case *ast.ExprStmt:
		if c.isRelease(s.X) {
			return true, false
		}
		if isPanicCall(s.X) {
			return released, true
		}
		return released, false
	case *ast.AssignStmt:
		return released || c.stmtContainsRelease(s), false
	case *ast.BlockStmt:
		return c.scanList(s.List, released)
	case *ast.IfStmt:
		thenRel, thenExit := c.scanList(s.Body.List, released)
		elseRel, elseExit := released, false
		if s.Else != nil {
			elseRel, elseExit = c.scanStmt(s.Else, released)
		}
		switch {
		case thenExit && elseExit:
			return released, true
		case thenExit:
			return elseRel, false
		case elseExit:
			return thenRel, false
		default:
			return thenRel && elseRel, false
		}
	case *ast.ForStmt:
		c.scanList(s.Body.List, released) // the body may run zero times
		return released, false
	case *ast.RangeStmt:
		c.scanList(s.Body.List, released)
		return released, false
	case *ast.SwitchStmt:
		return c.scanClauses(s.Body, released)
	case *ast.TypeSwitchStmt:
		return c.scanClauses(s.Body, released)
	case *ast.SelectStmt:
		allRel, allExit := true, len(s.Body.List) > 0
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				r, e := c.scanList(cc.Body, released)
				if !e {
					allExit = false
					allRel = allRel && r
				}
			}
		}
		if allExit {
			return released, true
		}
		return released || allRel, false
	case *ast.LabeledStmt:
		return c.scanStmt(s.Stmt, released)
	case *ast.DeferStmt, *ast.GoStmt:
		return released, false
	default:
		return released, false
	}
}

func (c *releaseChecker) scanClauses(body *ast.BlockStmt, released bool) (rel, exited bool) {
	hasDefault := false
	allRel, allExit := true, true
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		r, e := c.scanList(cc.Body, released)
		if !e {
			allExit = false
			allRel = allRel && r
		}
	}
	if hasDefault && allExit {
		return released, true
	}
	// Without a default clause the switch can fall through unchanged.
	return released || (allRel && hasDefault), false
}

// stmtContainsRelease reports whether any expression inside s releases.
func (c *releaseChecker) stmtContainsRelease(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && c.isRelease(e) {
			found = true
		}
		return !found
	})
	return found
}

func (c *releaseChecker) exprContainsRelease(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if x, ok := n.(ast.Expr); ok && c.isRelease(x) {
			found = true
		}
		return !found
	})
	return found
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
