package query

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// nullableFloat carries a float64 across JSON, which has no number encoding
// for non-finite values: NaN marshals as null (and null unmarshals back to
// NaN), while ±Inf marshal as the strings "+Inf"/"-Inf" so they survive the
// round trip distinguishably — a joint log density that underflowed to -Inf
// must not come back as NaN. Ranked k-MLIQ results legitimately carry NaN
// probabilities (the basic §5.2.1 algorithm never computes them), so the
// network layer must round-trip them without erroring the whole document.
type nullableFloat float64

func (f nullableFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

func (f *nullableFloat) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case "null":
		*f = nullableFloat(math.NaN())
		return nil
	case `"+Inf"`:
		*f = nullableFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = nullableFloat(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = nullableFloat(v)
	return nil
}

// jsonResult is the stable wire encoding of a Result. Probability fields use
// the nullable encoding because ranked queries report NaN there; LogDensity
// uses it too so extreme underflow (-Inf) round-trips instead of producing
// invalid JSON.
type jsonResult struct {
	Vector      pfv.Vector    `json:"vector"`
	Probability nullableFloat `json:"probability"`
	ProbLow     nullableFloat `json:"prob_low"`
	ProbHigh    nullableFloat `json:"prob_high"`
	LogDensity  nullableFloat `json:"log_density"`
}

// MarshalJSON encodes the result with stable lowercase keys; NaN (ranked
// queries) encodes as null, ±Inf as the strings "+Inf"/"-Inf".
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonResult{
		Vector:      r.Vector,
		Probability: nullableFloat(r.Probability),
		ProbLow:     nullableFloat(r.ProbLow),
		ProbHigh:    nullableFloat(r.ProbHigh),
		LogDensity:  nullableFloat(r.LogDensity),
	})
}

// UnmarshalJSON decodes a result; null probability fields decode to NaN.
func (r *Result) UnmarshalJSON(data []byte) error {
	jm := jsonResult{
		Probability: nullableFloat(math.NaN()),
		ProbLow:     nullableFloat(math.NaN()),
		ProbHigh:    nullableFloat(math.NaN()),
		LogDensity:  nullableFloat(math.NaN()),
	}
	if err := json.Unmarshal(data, &jm); err != nil {
		return fmt.Errorf("gausstree: decoding match: %w", err)
	}
	*r = Result{
		Vector:      jm.Vector,
		Probability: float64(jm.Probability),
		ProbLow:     float64(jm.ProbLow),
		ProbHigh:    float64(jm.ProbHigh),
		LogDensity:  float64(jm.LogDensity),
	}
	return nil
}
