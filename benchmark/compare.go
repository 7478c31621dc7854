package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	vPass       = "PASS"
	vFail       = "FAIL"
	vUnresolved = "UNRESOLVED"
	vDemoted    = "demoted"
)

// worsening returns by what share of a's median b's median is worse, in the
// metric's direction (negative = better). A zero base has no share: it is 0
// when b is zero too and 1 otherwise.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	d := (b - a) / a
	if better == "higher" {
		d = -d
	}
	if a < 0 {
		d = -d
	}
	return d
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	as, bs := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	if better == "higher" {
		return bs[0] > as[len(as)-1]
	}
	return bs[len(bs)-1] < as[0]
}

// judge applies the benchmark's rule to one metric: b passes when its
// median is no worse than a's by more than the bound. Where either side's
// run-to-run spread is wider than the bound the medians cannot settle it,
// and the verdict is UNRESOLVED unless every run of b beats every run of a.
//
// With agree set, a and b are two sets of one commit and neither is the
// parent: the delta is the larger of the two directions, so swapping the
// files cannot change a verdict, and no ordering of runs excuses a spread.
func judge(m, n metricResult, agree bool) (delta, spreadA, spreadB float64, verdict string) {
	delta = worsening(m.Better, m.Median, n.Median)
	if agree {
		delta = math.Max(delta, worsening(m.Better, n.Median, m.Median))
	}
	spreadA, spreadB = spread(m.Values), spread(n.Values)
	switch {
	case (spreadA > m.Bound || spreadB > m.Bound) && (agree || !allBetter(m.Better, m.Values, n.Values)):
		verdict = vUnresolved
	case delta > m.Bound:
		verdict = vFail
	default:
		verdict = vPass
	}
	return delta, spreadA, spreadB, verdict
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the delta, the bound and the verdict, and returns an error when any
// metric fails or, with agree set, is unresolved. A file written before a
// metric was demoted (the committed baseline is the pair that demoted them)
// still holds it as end-to-end: its verdict is printed and counts for nothing.
func compareFiles(w io.Writer, pathA, pathB string, agree bool) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  rev %s  seed %d  repeats %d  %gs\n", pathA, a.Env.GitRevision, a.Env.Seed, a.Env.Repeats, a.Env.Seconds)
	fmt.Fprintf(w, "b: %s  rev %s  seed %d  repeats %d  %gs\n", pathB, b.Env.GitRevision, b.Env.Seed, b.Env.Repeats, b.Env.Seconds)
	if agree {
		fmt.Fprintln(w, "agreement of two sets of one commit: \"worse\" is the larger of the two directions")
	}
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "\n== %s == missing from b\n", wa.Name)
			counts[vFail]++
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n", wa.Name)
		fmt.Fprintf(w, "   %-22s %-6s %14s %14s %8s %7s %9s %9s  %s\n", "metric", "unit", "a median", "b median", "worse", "bound", "spread a", "spread b", "verdict")
		for _, ma := range wa.Metrics {
			if ma.Kind != "end_to_end" {
				continue
			}
			var mb *metricResult
			for i := range wb.Metrics {
				if wb.Metrics[i].Name == ma.Name && wb.Metrics[i].Kind == ma.Kind {
					mb = &wb.Metrics[i]
				}
			}
			demoted := isDemoted(ma.Name)
			if mb == nil {
				if demoted {
					fmt.Fprintf(w, "   %-22s demoted since a was written\n", ma.Name)
					counts[vDemoted]++
					continue
				}
				fmt.Fprintf(w, "   %-22s missing from b\n", ma.Name)
				counts[vFail]++
				continue
			}
			delta, sa, sb, verdict := judge(ma, *mb, agree)
			if demoted {
				verdict += ", " + vDemoted
				counts[vDemoted]++
			} else {
				counts[verdict]++
			}
			fmt.Fprintf(w, "   %-22s %-6s %14.6g %14.6g %+7.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
				ma.Name, ma.Unit, ma.Median, mb.Median, 100*delta, 100*ma.Bound, 100*sa, 100*sb, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d PASS, %d FAIL, %d UNRESOLVED; %d demoted and not judged\n", counts[vPass], counts[vFail], counts[vUnresolved], counts[vDemoted])
	if counts[vFail] > 0 {
		return fmt.Errorf("%d end-to-end metrics differ by more than their bound", counts[vFail])
	}
	if agree && counts[vUnresolved] > 0 {
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound", counts[vUnresolved])
	}
	return nil
}
