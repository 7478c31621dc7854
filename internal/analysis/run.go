package analysis

import "sort"

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
