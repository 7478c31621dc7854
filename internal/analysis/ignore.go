package analysis

import (
	"go/token"
	"slices"
	"strings"
)

// Suppression directives.
//
// A finding is suppressed by a comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// placed either on the flagged line itself (trailing comment) or on the line
// directly above it — the same placement staticcheck uses, so one directive
// style serves both tools. <analyzer> is a single analyzer name or a
// comma-separated list; the reason is mandatory and is reviewed like code:
// a directive without a reason is itself reported, and PR review policy is
// that the reason must say why the invariant holds anyway, not merely that
// the author wants the warning gone.

const ignorePrefix = "//lint:ignore "

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int // the source line the directive occupies
	analyzers []string
	reason    string
	pos       token.Pos
}

// collectIgnores parses every suppression directive in the package and
// reports malformed ones (missing analyzer name or missing reason) as
// diagnostics of the pseudo-analyzer "lintdirective".
func collectIgnores(pkg *Package) (ds []*ignoreDirective, malformed []Diagnostic) {
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimSpace(ignorePrefix)) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, strings.TrimSpace(ignorePrefix))
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintdirective",
						Message:  "malformed //lint:ignore directive: need \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				ds = append(ds, &ignoreDirective{
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
					pos:       c.Pos(),
				})
			}
		}
	}
	return ds, malformed
}

// Filter drops the diagnostics suppressed by a matching //lint:ignore
// directive on the same line or the line above, and appends a diagnostic for
// every malformed directive. The returned slice preserves order.
func Filter(pkg *Package, diags []Diagnostic) []Diagnostic {
	ds, malformed := collectIgnores(pkg)
	var out []Diagnostic
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		suppressed := false
		for _, dir := range ds {
			if dir.file == pos.Filename && (dir.line == pos.Line || dir.line == pos.Line-1) && slices.Contains(dir.analyzers, d.Analyzer) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return append(out, malformed...)
}
