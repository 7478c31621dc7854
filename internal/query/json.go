package query

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// nullableFloat carries a float64 across JSON, which has no number encoding
// for non-finite values: NaN is null, ±Inf are the strings "+Inf"/"-Inf" so
// they survive the round trip distinguishably — a joint log density that
// underflowed to -Inf must not come back as NaN. Ranked k-MLIQ results
// legitimately carry NaN probabilities (the basic §5.2.1 algorithm never
// computes them), so the network layer must round-trip them without erroring
// the whole document. appendNullable writes it, scanNullable reads it, and
// its UnmarshalJSON reads what the scanner declines.
type nullableFloat float64

func appendNullable(b []byte, key string, f float64) []byte {
	b = append(append(append(b, ",\""...), key...), "\":"...)
	switch {
	case math.IsNaN(f):
		return append(b, "null"...)
	case math.IsInf(f, 0):
		return append(strconv.AppendFloat(append(b, '"'), f, 'g', -1, 64), '"')
	}
	b, _ = pfv.AppendJSONFloat(b, f) // finite
	return b
}

func (f *nullableFloat) UnmarshalJSON(data []byte) error {
	s := pfv.NewJSONScanner(data)
	if v := scanNullable(s); s.End() {
		*f = nullableFloat(v)
		return nil
	}
	return json.Unmarshal(data, (*float64)(f))
}

// scanNullable reads what appendNullable writes.
func scanNullable(s *pfv.JSONScanner) float64 {
	switch {
	case s.Literal("null"):
		return math.NaN()
	case s.Literal(`"+Inf"`):
		return math.Inf(1)
	case s.Literal(`"-Inf"`):
		return math.Inf(-1)
	}
	return s.Float()
}

// jsonResult is what encoding/json decodes a result the scanner declines
// into.
type jsonResult struct {
	Vector      pfv.Vector    `json:"vector"`
	Probability nullableFloat `json:"probability"`
	ProbLow     nullableFloat `json:"prob_low"`
	ProbHigh    nullableFloat `json:"prob_high"`
	LogDensity  nullableFloat `json:"log_density"`
}

// AppendJSON appends r with stable lowercase keys, the bytes json.Marshal
// writes for it; NaN (ranked queries) encodes as null, ±Inf as the strings
// "+Inf"/"-Inf".
func AppendJSON(b []byte, r Result) ([]byte, error) {
	b, err := pfv.AppendJSON(append(b, `{"vector":`...), r.Vector)
	b = appendNullable(b, "probability", r.Probability)
	b = appendNullable(b, "prob_low", r.ProbLow)
	b = appendNullable(b, "prob_high", r.ProbHigh)
	return append(appendNullable(b, "log_density", r.LogDensity), '}'), err
}

// MarshalJSON encodes the result as AppendJSON does.
func (r Result) MarshalJSON() ([]byte, error) { return AppendJSON(nil, r) }

// ScanResult reads a result in one pass; absent probability fields are NaN.
func ScanResult(s *pfv.JSONScanner) Result {
	nan := math.NaN()
	r := Result{Probability: nan, ProbLow: nan, ProbHigh: nan, LogDensity: nan}
	s.Object(func(key []byte) bool {
		switch string(key) {
		case "vector":
			r.Vector = s.Vector()
		case "probability":
			r.Probability = scanNullable(s)
		case "prob_low":
			r.ProbLow = scanNullable(s)
		case "prob_high":
			r.ProbHigh = scanNullable(s)
		case "log_density":
			r.LogDensity = scanNullable(s)
		default:
			return false
		}
		return true
	})
	return r
}

// UnmarshalJSON decodes a result; null probability fields decode to NaN.
func (r *Result) UnmarshalJSON(data []byte) error {
	s := pfv.NewJSONScanner(data)
	if dec := ScanResult(s); s.End() {
		*r = dec
		return nil
	}
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
