package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// All returns the full gausslint suite: the seven project-specific
// analyzers followed by the stock vet-style passes folded into the same
// run, sorted by name.
func All() []*Analyzer {
	as := []*Analyzer{
		CtxFlow,
		EpochOrder,
		ErrWrap,
		LockOrder,
		ObsRegister,
		PoolReset,
		WALDurable,
		// Stock x/tools passes reimplemented on the stdlib (the module is
		// zero-dependency), covering what go vet and staticcheck do not:
		Nilness,
		UnusedWrite,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName resolves a comma-separated list of analyzer names; empty selects
// the whole suite.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := index[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run loads the packages matched by patterns (relative to dir), applies the
// analyzers, filters suppressed findings, prints the rest to w in the
// standard file:line:col format, and reports whether any finding survived.
func Run(w io.Writer, dir string, patterns []string, analyzers []*Analyzer) (found bool, err error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return false, err
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(w, "%v\n", terr)
			found = true
		}
		diags, err := RunAnalyzers(pkg, analyzers)
		if err != nil {
			return found, err
		}
		for _, d := range Filter(pkg, diags) {
			fmt.Fprintf(w, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			found = true
		}
	}
	return found, nil
}
