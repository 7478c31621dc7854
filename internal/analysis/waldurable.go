package analysis

import (
	"go/ast"
)

// WALDurable enforces durability-before-visibility (PR 7): a mutation
// becomes visible to readers the moment the writer publishes a new snapshot
// (treeSnap behind the atomic `snap` pointer), so the WAL record — or,
// without a WAL, the durable meta commit — must exist first, or a crash
// between publish and append acknowledges a mutation that recovery cannot
// replay. Concretely:
//
//  1. the atomic snapshot pointer may only be stored inside the one
//     designated publish function (func publish);
//  2. the reclamation epoch may only be advanced there too (publishing and
//     advancing are one indivisible protocol step);
//  3. every call of publish() must be lexically preceded, in the same
//     function, by a durability call: wal.Append, commitMeta, checkpoint
//     or seal.
//
// A recovery path that re-publishes state already durable in the meta record
// (Open) carries a justified //lint:ignore waldurable directive.
var WALDurable = &Analyzer{
	Name: "waldurable",
	Doc:  "snapshot publication requires a preceding WAL append (or meta commit): durability before visibility",
	Run:  runWALDurable,
}

// durabilityCalls are the callee names that make the pending mutation
// durable (or delegate to something that does).
var durabilityCalls = map[string]bool{
	"Append":     true, // t.wal.Append
	"commitMeta": true,
	"checkpoint": true,
	"seal":       true, // core's one log-or-commit step of a live mutation
}

func runWALDurable(pass *Pass) error {
	for _, fn := range funcDecls(pass.Files) {
		inPublish := fn.Name.Name == "publish"
		var durableAt []ast.Node // durability calls, in source order
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if durabilityCalls[name] {
				durableAt = append(durableAt, call)
				return true
			}
			if !inPublish && isSnapStore(pass, call) {
				pass.Report(call.Pos(), "snapshot pointer stored outside publish(): all visibility goes through the one WAL-ordered publish path")
			}
			if !inPublish && name == "AdvanceEpoch" {
				pass.Report(call.Pos(), "AdvanceEpoch called outside publish(): storing the snapshot and advancing the epoch are one protocol step")
			}
			if name == "publish" && len(call.Args) == 0 {
				preceded := false
				for _, d := range durableAt {
					if d.Pos() < call.Pos() {
						preceded = true
						break
					}
				}
				if !preceded {
					pass.Report(call.Pos(), "publish() without a preceding WAL append or meta commit: a crash here acknowledges a mutation recovery cannot replay")
				}
			}
			return true
		})
	}
	return nil
}

// isSnapStore matches x.snap.Store(...) on an atomic pointer field.
func isSnapStore(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := calleeSelector(call)
	if !ok || sel.Sel.Name != "Store" {
		return false
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || recv.Sel.Name != "snap" {
		return false
	}
	return isNamed(pass.TypeOf(recv), "sync/atomic", "Pointer")
}
