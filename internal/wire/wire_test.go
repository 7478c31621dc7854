package wire_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// checkVector asserts what every decoded vector must uphold, because the
// engine trusts it: pfv's invariants. It reports whether v is present at
// all — a document that omits a vector key leaves the zero Vector behind,
// which no handler accepts and which does not re-encode to valid input.
func checkVector(t *testing.T, v gausstree.Vector) bool {
	t.Helper()
	if len(v.Mean) != len(v.Sigma) {
		t.Fatalf("decoded vector %d has %d means, %d sigmas", v.ID, len(v.Mean), len(v.Sigma))
	}
	for i := range v.Mean {
		if math.IsNaN(v.Mean[i]) || math.IsInf(v.Mean[i], 0) {
			t.Fatalf("decoded vector %d: mean[%d] = %v", v.ID, i, v.Mean[i])
		}
		if !(v.Sigma[i] > 0) || math.IsInf(v.Sigma[i], 0) {
			t.Fatalf("decoded vector %d: sigma[%d] = %v", v.ID, i, v.Sigma[i])
		}
	}
	return len(v.Mean) > 0
}

// roundTrip is the oracle: whatever encoding/json decoded must encode, the
// encoding must decode again, and encoding that must reproduce the same
// bytes — decode∘encode is the identity on everything a peer can send.
func roundTrip[M any](t *testing.T, msg *M) {
	t.Helper()
	enc, err := json.Marshal(msg)
	if err != nil {
		t.Fatalf("decoded %T does not encode: %v", msg, err)
	}
	var again M
	if err := json.Unmarshal(enc, &again); err != nil {
		t.Fatalf("own encoding of %T does not decode: %v\n%s", msg, err, enc)
	}
	enc2, err := json.Marshal(&again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("%T is not a fixed point of decode∘encode:\n%s\n%s", msg, enc, enc2)
	}
}

// messages pairs each of the four scanned messages with its reference
// mirror.
var messages = []struct{ msg, ref func() any }{
	{func() any { return new(wire.QueryRequest) }, func() any { return new(refQueryRequest) }},
	{func() any { return new(wire.QueryResponse) }, func() any { return new(refQueryResponse) }},
	{func() any { return new(wire.BatchRequest) }, func() any { return new(refBatchRequest) }},
	{func() any { return new(wire.BatchResponse) }, func() any { return new(refBatchResponse) }},
}

// FuzzDecode feeds arbitrary bytes to the decoders of the messages on the
// hot serving path. Decoding must never panic, must only ever produce valid
// vectors, and must round-trip through encoding/json. Differentially, for
// each of the four scanned messages: the scanner either declines or decodes
// what encoding/json decodes into the reference mirror, floats compared by
// their bits; the whole decoder, lenient and strict, accepts exactly what
// encoding/json accepts and yields the same; and whatever decodes encodes to
// the reference's bytes.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"query":{"id":7,"mean":[0.5,0.25],"sigma":[0.05,0.08]},"k":3,"timeout_ms":250,"trace_id":"abc"}`))
	f.Add([]byte(`{"query":{"id":1,"mean":[1e308],"sigma":[5e-324]},"p_theta":0.5}`))
	f.Add([]byte(`{"matches":[{"vector":{"id":2,"mean":[1],"sigma":[1]},"probability":null,"prob_low":null,"prob_high":null,"log_density":"-Inf"}],"stats":{"page_accesses":15,"nodes_visited":4,"vectors_scored":90,"candidates_retained":3,"early_termination":true}}`))
	f.Add([]byte(`{"matches":[],"stats":{}}`))
	f.Add([]byte(`{"vectors":[{"id":1,"mean":[0],"sigma":[1]},{"id":1,"mean":[0,0],"sigma":[1,2]}]}`))
	f.Add([]byte(`{"vectors":[{"id":1,"mean":[0],"sigma":[0]}]}`))
	f.Add([]byte(`{"query":{"id":-1,"mean":[null],"sigma":["x"]}}`))
	// Batches, and the forms the scanner must decline or get right: case
	// variants, escapes and HTML-unsafe bytes, repeated keys, null arrays,
	// ids that are not uint64 literals, -0, subnormals, the exponent-form
	// boundaries, unknown keys inside a vector, white space everywhere.
	f.Add([]byte(`{"queries":[{"kind":"kmliq","query":{"id":3,"mean":[1,2],"sigma":[1,1]},"k":3},{"kind":"tiq","query":{"id":4,"mean":[0],"sigma":[2]},"p_theta":0.25}],"timeout_ms":30000,"trace_id":"b-1"}`))
	f.Add([]byte(`{"responses":[{"matches":[{"vector":{"id":2,"mean":[1],"sigma":[1]},"probability":0.5,"prob_low":0.25,"prob_high":0.75,"log_density":-3}],"stats":{"page_accesses":1,"nodes_visited":1,"vectors_scored":1,"candidates_retained":1,"early_termination":false}},{"matches":[],"stats":{"page_accesses":0,"nodes_visited":0,"vectors_scored":0,"candidates_retained":0,"early_termination":false},"error":"bad","code":"invalid_query"}],"trace_id":"t"}`))
	f.Add([]byte(`{"Query":{"ID":7,"Mean":[0.5],"SIGMA":[0.05]},"K":3,"Trace_ID":"x"}`))
	f.Add([]byte(`{"query":{"id":7,"mean":[0.5],"sigma":[0.05]},"trace_id":"\u003ca\u0026b\u003e\"\\\n\u2028"}`))
	f.Add([]byte(`{"query":{"id":7,"mean":[0.5],"sigma":[0.05]},"trace_id":"<a&b>"}`))
	f.Add([]byte(`{"query":{"id":7,"mean":[0.5],"sigma":[0.05]},"k":3,"k":4}`))
	f.Add([]byte(`{"query":{"id":7,"mean":[0.5],"sigma":[0.05],"mean":[1]}}`))
	f.Add([]byte(`{"queries":[{"kind":"a","k":5}],"queries":[{"kind":"b"}]}`))
	f.Add([]byte(`{"query":{"id":1,"mean":[+1],"sigma":[1]},"k":+3}`))
	f.Add([]byte(`{"matches":null,"stats":{}}`))
	f.Add([]byte(`{"queries":null}`))
	f.Add([]byte(`{"query":{"id":1e2,"mean":[1],"sigma":[1]}}`))
	f.Add([]byte(`{"query":{"id":-1,"mean":[1],"sigma":[1]},"k":-1}`))
	f.Add([]byte(`{"query":{"id":0,"mean":[-0,-0.0,0e0],"sigma":[4.9e-324,2.2250738585072009e-308,1e-7]},"p_theta":-0}`))
	f.Add([]byte(`{"query":{"id":1,"mean":[1e21,999999999999999900000,1e-6,9.999999e-7],"sigma":[1e20,1E+2,1e-07,0.000001]}}`))
	f.Add([]byte(`{"query":{"id":1,"mean":[1,2],"sigma":[1,1],"bogus":7},"k":3}`))
	f.Add([]byte(" \t\r\n{ \"query\" :\n{ \"id\" : 7 , \"mean\" : [ 0.5 ] , \"sigma\" : [ 0.05 ] } , \"k\" : 3 }\n "))
	f.Add([]byte(`{"matches":[{"vector":{"id":2,"mean":[1],"sigma":[1]},"probability":"+Inf","log_density":1e400}],"stats":{"page_accesses":-0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var qr wire.QueryRequest
		if json.Unmarshal(data, &qr) == nil && checkVector(t, qr.Query) {
			roundTrip(t, &qr)
		}
		var resp wire.QueryResponse
		if json.Unmarshal(data, &resp) == nil {
			complete := true
			for _, m := range resp.Matches {
				complete = checkVector(t, m.Vector) && complete
			}
			if complete {
				roundTrip(t, &resp)
			}
		}
		var ins wire.InsertRequest
		if json.Unmarshal(data, &ins) == nil {
			complete := true
			for _, v := range ins.Vectors {
				complete = checkVector(t, v) && complete
			}
			if complete {
				roundTrip(t, &ins)
			}
		}
		for _, m := range messages {
			scanned := m.msg()
			if wire.Scanned(data, scanned) {
				want := m.ref()
				if err := pfv.DecodeJSON(data, want, true); err != nil {
					t.Fatalf("the scanner took what encoding/json refuses (%v): %q", err, data)
				}
				sameAsReference(t, scanned, want, data)
			}
			for _, strict := range []bool{false, true} {
				got, want := m.msg(), m.ref()
				err := wire.Decode(data, got, strict)
				wantErr := pfv.DecodeJSON(data, want, strict)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("strict %v: decoder error %v, encoding/json error %v: %q", strict, err, wantErr, data)
				}
				if err == nil {
					sameAsReference(t, got, want, data)
					checkAppend(t, got)
				}
			}
		}
	})
}

// sameAsReference asserts that a decoded message is the decoded mirror,
// floats compared by their bits.
func sameAsReference(t *testing.T, got, want any, data []byte) {
	t.Helper()
	if !sameBits(reflect.ValueOf(reference(got)), reflect.ValueOf(want).Elem()) {
		t.Fatalf("%T: decoded %+v, encoding/json %+v: %q", got, got, want, data)
	}
}
