package wire_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	gausstree "github.com/gauss-tree/gausstree"
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

// FuzzDecode feeds arbitrary bytes to the decoders of the three messages on
// the hot serving path. Decoding must never panic, must only ever produce
// valid vectors, and must round-trip through encoding/json.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"query":{"id":7,"mean":[0.5,0.25],"sigma":[0.05,0.08]},"k":3,"timeout_ms":250,"trace_id":"abc"}`))
	f.Add([]byte(`{"query":{"id":1,"mean":[1e308],"sigma":[5e-324]},"p_theta":0.5}`))
	f.Add([]byte(`{"matches":[{"vector":{"id":2,"mean":[1],"sigma":[1]},"probability":null,"prob_low":null,"prob_high":null,"log_density":"-Inf"}],"stats":{"page_accesses":15,"nodes_visited":4,"vectors_scored":90,"candidates_retained":3,"early_termination":true}}`))
	f.Add([]byte(`{"matches":[],"stats":{}}`))
	f.Add([]byte(`{"vectors":[{"id":1,"mean":[0],"sigma":[1]},{"id":1,"mean":[0,0],"sigma":[1,2]}]}`))
	f.Add([]byte(`{"vectors":[{"id":1,"mean":[0],"sigma":[0]}]}`))
	f.Add([]byte(`{"query":{"id":-1,"mean":[null],"sigma":["x"]}}`))
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
	})
}
