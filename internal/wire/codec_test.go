package wire_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// The reference: plain mirror structs that encoding/json marshals and
// unmarshals field by field. Their only methods are the rules encoding/json
// cannot express: a vector is validated (and refuses unknown keys), a
// result's float fields carry NaN as null and ±Inf as "+Inf"/"-Inf", absent
// ones are NaN. The codec must write the same bytes for every value and
// decode the same values from every input.

type refVector struct {
	ID    uint64    `json:"id"`
	Mean  []float64 `json:"mean"`
	Sigma []float64 `json:"sigma"`
}

func (v *refVector) UnmarshalJSON(data []byte) error {
	type plain refVector
	if err := pfv.DecodeJSON(data, (*plain)(v), true); err != nil {
		return err
	}
	_, err := gausstree.NewVector(v.ID, v.Mean, v.Sigma)
	return err
}

type refFloat float64

func (f *refFloat) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case "null":
		*f = refFloat(math.NaN())
	case `"+Inf"`:
		*f = refFloat(math.Inf(1))
	case `"-Inf"`:
		*f = refFloat(math.Inf(-1))
	default:
		return json.Unmarshal(data, (*float64)(f))
	}
	return nil
}

func (f refFloat) MarshalJSON() ([]byte, error) {
	switch v := float64(f); {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	default:
		return json.Marshal(v)
	}
}

type refResult struct {
	Vector      refVector `json:"vector"`
	Probability refFloat  `json:"probability"`
	ProbLow     refFloat  `json:"prob_low"`
	ProbHigh    refFloat  `json:"prob_high"`
	LogDensity  refFloat  `json:"log_density"`
}

func (r *refResult) UnmarshalJSON(data []byte) error {
	type plain refResult
	nan := refFloat(math.NaN())
	p := plain{Probability: nan, ProbLow: nan, ProbHigh: nan, LogDensity: nan}
	err := json.Unmarshal(data, &p)
	*r = refResult(p)
	return err
}

type refQueryRequest struct {
	Query     refVector `json:"query"`
	K         int       `json:"k,omitempty"`
	PTheta    float64   `json:"p_theta,omitempty"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
}

type refQueryResponse struct {
	Matches []refResult `json:"matches"`
	Stats   wire.Stats  `json:"stats"`
	TraceID string      `json:"trace_id,omitempty"`
}

type refBatchItem struct {
	Kind   string    `json:"kind"`
	Query  refVector `json:"query"`
	K      int       `json:"k,omitempty"`
	PTheta float64   `json:"p_theta,omitempty"`
}

type refBatchRequest struct {
	Queries   []refBatchItem `json:"queries"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
	TraceID   string         `json:"trace_id,omitempty"`
}

type refBatchItemResponse struct {
	Matches []refResult `json:"matches"`
	Stats   wire.Stats  `json:"stats"`
	Error   string      `json:"error,omitempty"`
	Code    string      `json:"code,omitempty"`
}

type refBatchResponse struct {
	Responses []refBatchItemResponse `json:"responses"`
	TraceID   string                 `json:"trace_id,omitempty"`
}

func refVec(v gausstree.Vector) refVector { return refVector{v.ID, v.Mean, v.Sigma} }

func refMatches(ms []gausstree.Match) []refResult {
	if ms == nil {
		return nil
	}
	out := make([]refResult, len(ms))
	for i, m := range ms {
		out[i] = refResult{refVec(m.Vector), refFloat(m.Probability), refFloat(m.ProbLow), refFloat(m.ProbHigh), refFloat(m.LogDensity)}
	}
	return out
}

// reference returns the mirror of one of the four messages.
func reference(msg any) any {
	switch m := msg.(type) {
	case *wire.QueryRequest:
		return refQueryRequest{refVec(m.Query), m.K, m.PTheta, m.TimeoutMS, m.TraceID}
	case *wire.QueryResponse:
		return refQueryResponse{refMatches(m.Matches), m.Stats, m.TraceID}
	case *wire.BatchRequest:
		r := refBatchRequest{TimeoutMS: m.TimeoutMS, TraceID: m.TraceID}
		if m.Queries != nil {
			r.Queries = []refBatchItem{}
		}
		for _, it := range m.Queries {
			r.Queries = append(r.Queries, refBatchItem{it.Kind, refVec(it.Query), it.K, it.PTheta})
		}
		return r
	case *wire.BatchResponse:
		r := refBatchResponse{TraceID: m.TraceID}
		if m.Responses != nil {
			r.Responses = []refBatchItemResponse{}
		}
		for _, it := range m.Responses {
			r.Responses = append(r.Responses, refBatchItemResponse{refMatches(it.Matches), it.Stats, it.Error, it.Code})
		}
		return r
	}
	panic("no reference for this message")
}

// checkAppend asserts that the codec writes the reference's bytes, through
// wire.Append and through json.Marshal, or fails where it fails.
func checkAppend(t *testing.T, msg any) []byte {
	t.Helper()
	want, wantErr := json.Marshal(reference(msg))
	got, err := wire.Append(nil, reflect.ValueOf(msg).Elem().Interface())
	viaMarshal, marshalErr := json.Marshal(msg)
	if (err != nil) != (wantErr != nil) || (marshalErr != nil) != (wantErr != nil) {
		t.Fatalf("%T: codec error %v, json.Marshal error %v, reference error %v", msg, err, marshalErr, wantErr)
	}
	if wantErr == nil && (!bytes.Equal(got, want) || !bytes.Equal(viaMarshal, want)) {
		t.Fatalf("%T: codec wrote\n%s\njson.Marshal wrote\n%s\nthe reference\n%s", msg, got, viaMarshal, want)
	}
	return got
}

// sameBits is reflect.DeepEqual with floats compared by their bits.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// randFloat draws from the whole float64 range, weighted towards the
// format's boundaries: ±0, subnormals, 1e-7 and 1e-6 (where the 'e' form
// starts), 1e21, and the extremes.
func randFloat(rng *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, 2.225073858507201e-308, 1e-7, 9.99999999e-7, 1e-6,
		1.0000000000000002e-6, 1e20, 999999999999999900000, 1e21, 1.7976931348623157e308, 0.1, 1, 123456789}
	switch rng.Intn(3) {
	case 0:
		f := edges[rng.Intn(len(edges))]
		if rng.Intn(2) == 0 {
			f = -f
		}
		return f
	case 1:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52) // any finite
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
}

// randNonFinite returns a NaN (with a random payload) or an infinity.
func randNonFinite(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	}
	return math.Float64frombits(0x7ff<<52 | 1 + rng.Uint64()>>13)
}

func randVector(rng *rand.Rand, canonical bool) gausstree.Vector {
	if !canonical && rng.Intn(8) == 0 {
		return gausstree.Vector{} // "mean":null
	}
	d := 1 + rng.Intn(12)
	v := gausstree.Vector{ID: rng.Uint64() >> uint(rng.Intn(64)), Mean: make([]float64, d), Sigma: make([]float64, d)}
	if rng.Intn(6) == 0 {
		v.ID = math.MaxUint64
	}
	for i := range d {
		v.Mean[i] = randFloat(rng)
		v.Sigma[i] = math.Abs(randFloat(rng))
		if v.Sigma[i] == 0 {
			v.Sigma[i] = 5e-324
		}
	}
	if !canonical && rng.Intn(20) == 0 {
		v.Mean[rng.Intn(d)] = randNonFinite(rng) // json.Marshal refuses it, so must the codec
	}
	return v
}

func randMatches(rng *rand.Rand, canonical bool) []gausstree.Match {
	if !canonical && rng.Intn(6) == 0 {
		return nil
	}
	ms := make([]gausstree.Match, rng.Intn(5))
	for i := range ms {
		ms[i] = gausstree.Match{Vector: randVector(rng, canonical)}
		for _, f := range []*float64{&ms[i].Probability, &ms[i].ProbLow, &ms[i].ProbHigh, &ms[i].LogDensity} {
			if *f = randFloat(rng); rng.Intn(4) == 0 {
				*f = randNonFinite(rng)
			}
		}
	}
	return ms
}

// randString returns "" half the time, else a trace id, error text or code;
// a non-canonical one may hold escapes, HTML-unsafe bytes, U+2028 and
// invalid UTF-8.
func randString(rng *rand.Rand, canonical bool) string {
	if rng.Intn(2) == 0 {
		return ""
	}
	pieces := []string{"a", "b", "X", "Z", "0", "9", "-", "_", ":", ".", " ", "/"}
	if !canonical {
		pieces = append(pieces, `"`, `\`, "<", ">", "&", "\n", "\t", "\x00", "\x7f", "\u2028", "\u2029", "é", "\xff")
	}
	var b strings.Builder
	for range 1 + rng.Intn(16) {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func randStats(rng *rand.Rand) wire.Stats {
	return wire.Stats{PageAccesses: rng.Uint64() >> uint(rng.Intn(64)), NodesVisited: rng.Intn(1000),
		VectorsScored: rng.Intn(1 << 20), CandidatesRetained: rng.Intn(10), EarlyTermination: rng.Intn(2) == 0}
}

func randK(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return 0 // omitted
	}
	return rng.Intn(1<<20) - 1<<10
}

// randMessages returns one of each message; canonical ones hold nothing the
// scanner must decline.
func randMessages(rng *rand.Rand, canonical bool) []any {
	qr := &wire.QueryRequest{Query: randVector(rng, canonical), K: randK(rng), TimeoutMS: int64(randK(rng)), TraceID: randString(rng, canonical)}
	if rng.Intn(2) == 0 {
		qr.PTheta = randFloat(rng)
	}
	resp := &wire.QueryResponse{Matches: randMatches(rng, canonical), Stats: randStats(rng), TraceID: randString(rng, canonical)}
	br := &wire.BatchRequest{TimeoutMS: int64(randK(rng)), TraceID: randString(rng, canonical)}
	bresp := &wire.BatchResponse{TraceID: randString(rng, canonical)}
	if canonical || rng.Intn(6) != 0 {
		for range rng.Intn(17) {
			br.Queries = append(br.Queries, wire.BatchItem{Kind: randString(rng, canonical), Query: randVector(rng, canonical), K: randK(rng), PTheta: float64(randK(rng))})
			bresp.Responses = append(bresp.Responses, wire.BatchItemResponse{Matches: randMatches(rng, canonical), Stats: randStats(rng),
				Error: randString(rng, canonical), Code: randString(rng, canonical)})
		}
		if br.Queries == nil {
			br.Queries, bresp.Responses = []wire.BatchItem{}, []wire.BatchItemResponse{}
		}
	}
	return []any{qr, resp, br, bresp}
}

// TestCodecWritesWhatEncodingJSONWrites: over random messages — NaN
// payloads, ±Inf, ±0, subnormals and the exponent-form boundaries, max-uint64
// ids, nil and empty match lists, omitempty members set and unset, strings
// that need escaping — the codec's bytes are the reference's, and a
// non-finite vector component fails both. The canonical messages, the ones
// a server sends, must also be taken by the scanner, and what it decodes
// must encode to the same bytes again.
func TestCodecWritesWhatEncodingJSONWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	filled := map[reflect.Type]any{}
	for range 400 {
		for _, canonical := range []bool{true, false} {
			for _, msg := range randMessages(rng, canonical) {
				enc := checkAppend(t, msg)
				if !canonical {
					continue
				}
				back := reflect.New(reflect.TypeOf(msg).Elem())
				if !wire.Scanned(enc, back.Interface()) {
					t.Fatalf("the scanner declined the codec's own %T:\n%s", msg, enc)
				}
				if again := checkAppend(t, back.Interface()); !bytes.Equal(again, enc) {
					t.Fatalf("%T did not come back:\n%s\n%s", msg, enc, again)
				}
				// Into the last message of its type, encoding/json merges
				// field by field and element over element.
				if got := filled[back.Type()]; got != nil {
					want := reflect.New(reflect.TypeOf(reference(msg)))
					want.Elem().Set(reflect.ValueOf(reference(got)))
					if err := json.Unmarshal(enc, got); err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(enc, want.Interface()); err != nil {
						t.Fatal(err)
					}
					sameAsReference(t, got, want.Interface(), enc)
				}
				filled[back.Type()] = back.Interface()
			}
		}
	}
}

// BenchmarkWireCodec times one encode plus one decode of the served path's
// messages: a 3-match response, a request and a 16-item batch each way.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vec := func() gausstree.Vector {
		v := gausstree.Vector{ID: rng.Uint64() >> 20, Mean: make([]float64, 10), Sigma: make([]float64, 10)}
		for i := range v.Mean {
			v.Mean[i], v.Sigma[i] = rng.Float64(), 0.01+rng.Float64()/10
		}
		return v
	}
	matches := func() []gausstree.Match {
		ms := make([]gausstree.Match, 3)
		for i := range ms {
			p := rng.Float64()
			ms[i] = gausstree.Match{Vector: vec(), Probability: p, ProbLow: p * 0.999, ProbHigh: p * 1.001, LogDensity: -40 * rng.Float64()}
		}
		return ms
	}
	stats := wire.Stats{PageAccesses: 106, NodesVisited: 30, VectorsScored: 4000, CandidatesRetained: 3, EarlyTermination: true}
	batch, batchResp := wire.BatchRequest{TimeoutMS: 30000}, wire.BatchResponse{}
	for range 16 {
		batch.Queries = append(batch.Queries, wire.BatchItem{Kind: wire.KindKMLIQ, Query: vec(), K: 3})
		batchResp.Responses = append(batchResp.Responses, wire.BatchItemResponse{Matches: matches(), Stats: stats})
	}
	for _, bc := range []struct {
		name string
		msg  any
		dst  func() any
	}{
		{"response-3", wire.QueryResponse{Matches: matches(), Stats: stats}, func() any { return new(wire.QueryResponse) }},
		{"request", wire.QueryRequest{Query: vec(), K: 3, TimeoutMS: 30000}, func() any { return new(wire.QueryRequest) }},
		{"batch-16", batch, func() any { return new(wire.BatchRequest) }},
		{"batch-response-16", batchResp, func() any { return new(wire.BatchResponse) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				var err error
				if buf, err = wire.Append(buf[:0], bc.msg); err != nil {
					b.Fatal(err)
				}
				if err := wire.Decode(buf, bc.dst(), true); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
