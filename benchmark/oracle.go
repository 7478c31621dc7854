package main

import (
	"fmt"
	"sort"
	"sync"

	gausstree "github.com/gauss-tree/gausstree"
)

// probTol absorbs floating-point noise when an oracle probability is held
// against a certified interval or against another probability.
const probTol = 1e-9

const tiqTheta = 0.8

// oracle answers identification queries by scanning every stored vector
// with gausstree.Posterior, the paper's general solution (§4). It shares
// no traversal, bound or page code with the index.
type oracle struct {
	db []gausstree.Vector
}

// answer is what the program returned for one checked query.
type answer struct {
	q       gausstree.Vector
	matches []gausstree.Match
}

// posterior returns P(v|q) for every stored vector, indexed like o.db.
func (o *oracle) posterior(q gausstree.Vector) []float64 {
	return gausstree.Posterior(gausstree.CombineAdditive, o.db, q)
}

// checkKMLIQ verifies a k-MLIQ answer: it has k matches, their true
// probabilities are the k largest (so ids agree with the scan ranking up
// to exact ties), and every certified interval contains the true value.
func (o *oracle) checkKMLIQ(a answer, k int, post []float64, byID map[uint64]int) error {
	if len(a.matches) != k {
		return fmt.Errorf("kmliq: %d matches, want %d", len(a.matches), k)
	}
	top := largest(post, k)
	got := make([]float64, 0, k)
	for _, m := range a.matches {
		i, ok := byID[m.Vector.ID]
		if !ok {
			return fmt.Errorf("kmliq: unknown id %d", m.Vector.ID)
		}
		if post[i] < m.ProbLow-probTol || post[i] > m.ProbHigh+probTol {
			return fmt.Errorf("kmliq: id %d true P=%.12g outside certified [%.12g, %.12g]", m.Vector.ID, post[i], m.ProbLow, m.ProbHigh)
		}
		got = append(got, post[i])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(got)))
	for r := range got {
		if diff := got[r] - top[r]; diff < -probTol || diff > probTol {
			return fmt.Errorf("kmliq: rank %d has true P=%.12g, scan ranking has %.12g", r+1, got[r], top[r])
		}
	}
	return nil
}

// largest returns the k largest values of xs in descending order, in one
// pass (xs holds every stored vector's probability; sorting it per query
// would cost more than the scan).
func largest(xs []float64, k int) []float64 {
	top := make([]float64, 0, k+1)
	for _, x := range xs {
		if len(top) == k && x <= top[k-1] {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return top[i] < x })
		top = append(top, 0)
		copy(top[i+1:], top[i:])
		top[i] = x
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// checkTIQ verifies a threshold answer: nothing with P >= theta is missing,
// every certified interval contains the true value, and a returned object
// below theta is certified-ambiguous (its interval reaches theta).
func (o *oracle) checkTIQ(a answer, theta float64, post []float64, byID map[uint64]int) error {
	returned := make(map[uint64]bool, len(a.matches))
	for _, m := range a.matches {
		i, ok := byID[m.Vector.ID]
		if !ok {
			return fmt.Errorf("tiq: unknown id %d", m.Vector.ID)
		}
		if post[i] < m.ProbLow-probTol || post[i] > m.ProbHigh+probTol {
			return fmt.Errorf("tiq: id %d true P=%.12g outside certified [%.12g, %.12g]", m.Vector.ID, post[i], m.ProbLow, m.ProbHigh)
		}
		if m.ProbHigh < theta-probTol {
			return fmt.Errorf("tiq: id %d returned with certified high %.12g < theta", m.Vector.ID, m.ProbHigh)
		}
		returned[m.Vector.ID] = true
	}
	for i, p := range post {
		if p >= theta+probTol && !returned[o.db[i].ID] {
			return fmt.Errorf("tiq: id %d with P=%.12g dismissed", o.db[i].ID, p)
		}
	}
	return nil
}

// verify checks kmliq and tiq answers (either may be nil) for the same
// leading pool queries and returns how many answers were wrong. The scans
// are independent, so they are spread over workers goroutines.
func (o *oracle) verify(kmliq, tiq []answer, workers int) (checked, wrong int, first error) {
	n := len(kmliq)
	if len(tiq) > n {
		n = len(tiq)
	}
	byID := make(map[uint64]int, len(o.db))
	for i, v := range o.db {
		byID[v.ID] = i
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				var q gausstree.Vector
				if i < len(kmliq) {
					q = kmliq[i].q
				} else {
					q = tiq[i].q
				}
				post := o.posterior(q)
				var errs []error
				if i < len(kmliq) {
					errs = append(errs, o.checkKMLIQ(kmliq[i], kK, post, byID))
				}
				if i < len(tiq) {
					errs = append(errs, o.checkTIQ(tiq[i], tiqTheta, post, byID))
				}
				mu.Lock()
				for _, err := range errs {
					checked++
					if err != nil {
						wrong++
						if first == nil {
							first = fmt.Errorf("query %d: %w", i, err)
						}
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return checked, wrong, first
}
