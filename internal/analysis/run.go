package analysis

import "sort"

// All returns the full gausslint suite, the three project-specific
// analyzers, sorted by name.
func All() []*Analyzer {
	as := []*Analyzer{
		CtxFlow,
		ErrWrap,
		PoolReset,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}
