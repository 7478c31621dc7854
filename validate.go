package gausstree

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidQuery is returned (wrapped) by every query and mutation method
// of Tree and Sharded when the arguments are invalid: k < 1 for the k-MLIQ
// variants, pTheta outside (0, 1] for the TIQ variants, or a query or
// mutation vector whose dimensionality differs from the tree's. Rejections
// happen before the storage engine is touched, so invalid input can never
// be mistaken for a storage fault (and never poisons the tree). Test with
// errors.Is.
var ErrInvalidQuery = errors.New("gausstree: invalid query")

// ErrInvalidOptions is returned (wrapped) by the constructors when an
// Options/IngestOptions field is out of range — a non-positive shard
// count, a non-positive or infinite MergeDistance, a negative TTL. Test
// with errors.Is.
var ErrInvalidOptions = errors.New("gausstree: invalid options")

// checkQueryVector rejects query vectors of the wrong dimensionality. A zero
// Vector (dimension 0) is caught here too.
func checkQueryVector(q Vector, dim int) error {
	if q.Dim() != dim {
		return fmt.Errorf("%w: query dimension %d, tree dimension %d", ErrInvalidQuery, q.Dim(), dim)
	}
	return nil
}

// checkMutationVectors rejects mutation vectors of the wrong dimensionality
// before they reach the storage engine, so bad input surfaces as
// ErrInvalidQuery instead of looking like a mid-mutation storage fault to
// the serving layer's degrade detection.
func checkMutationVectors(vs []Vector, dim int) error {
	for i := range vs {
		if vs[i].Dim() != dim {
			return fmt.Errorf("%w: vector %d (id %d) has dimension %d, tree dimension %d", ErrInvalidQuery, i, vs[i].ID, vs[i].Dim(), dim)
		}
	}
	return nil
}

// checkK rejects non-positive k-MLIQ result counts.
func checkK(k int) error {
	if k < 1 {
		return fmt.Errorf("%w: k must be at least 1, got %d", ErrInvalidQuery, k)
	}
	return nil
}

// checkPTheta rejects thresholds outside (0, 1]. A TIQ with pTheta ≤ 0 is
// not a meaningful identification query (every object trivially qualifies),
// and NaN compares false against everything, so it is rejected here too.
func checkPTheta(pTheta float64) error {
	if math.IsNaN(pTheta) || pTheta <= 0 || pTheta > 1 {
		return fmt.Errorf("%w: threshold must be in (0, 1], got %v", ErrInvalidQuery, pTheta)
	}
	return nil
}
