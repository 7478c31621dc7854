package wire

import (
	"encoding/json"
	"strconv"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// Append appends msg's JSON, the bytes json.Marshal writes for it.
func Append(b []byte, msg any) ([]byte, error) {
	if m, ok := msg.(interface{ appendJSON([]byte) ([]byte, error) }); ok {
		return m.appendJSON(b)
	}
	enc, err := json.Marshal(msg)
	return append(b, enc...), err
}

// Decode decodes the JSON message data into dst as a json.Decoder does;
// strict adds DisallowUnknownFields, inside the vectors too, and refuses
// anything but white space after the message.
func Decode(data []byte, dst any, strict bool) error {
	if scanned(data, dst) {
		return nil
	}
	return pfv.DecodeJSON(data, plain(dst), strict)
}

func unmarshal(data []byte, dst any) error {
	if scanned(data, dst) {
		return nil
	}
	return json.Unmarshal(data, plain(dst))
}

func (r QueryRequest) MarshalJSON() ([]byte, error)      { return r.appendJSON(buffer()) }
func (r QueryResponse) MarshalJSON() ([]byte, error)     { return r.appendJSON(buffer()) }
func (r BatchRequest) MarshalJSON() ([]byte, error)      { return r.appendJSON(buffer()) }
func (r BatchResponse) MarshalJSON() ([]byte, error)     { return r.appendJSON(buffer()) }
func (r *QueryRequest) UnmarshalJSON(data []byte) error  { return unmarshal(data, r) }
func (r *QueryResponse) UnmarshalJSON(data []byte) error { return unmarshal(data, r) }
func (r *BatchRequest) UnmarshalJSON(data []byte) error  { return unmarshal(data, r) }
func (r *BatchResponse) UnmarshalJSON(data []byte) error { return unmarshal(data, r) }

// buffer is what MarshalJSON appends to: a served 3-MLIQ's request or
// response fits it without growing.
func buffer() []byte { return make([]byte, 0, 2048) }

type (
	queryRequest  = QueryRequest
	queryResponse = QueryResponse
	batchRequest  = BatchRequest
	batchResponse = BatchResponse
)

// plain returns dst as a type with its fields and none of its methods, which
// encoding/json decodes field by field. The types carry the messages' names,
// so encoding/json's errors name them as they did before the messages had
// methods.
func plain(dst any) any {
	type QueryRequest queryRequest
	type QueryResponse queryResponse
	type BatchRequest batchRequest
	type BatchResponse batchResponse
	switch d := dst.(type) {
	case *queryRequest:
		return (*QueryRequest)(d)
	case *queryResponse:
		return (*QueryResponse)(d)
	case *batchRequest:
		return (*BatchRequest)(d)
	case *batchResponse:
		return (*BatchResponse)(d)
	}
	return dst
}

// scanned reports whether the scanner took data and decoded it into dst. It
// decodes into a copy, so a declined document leaves dst as it was.
// encoding/json decodes an array into the slice already there, element over
// element; a message that holds one is left to it.
func scanned(data []byte, dst any) bool {
	switch d := dst.(type) {
	case *QueryRequest:
		return scanInto(data, d, (*QueryRequest).scan)
	case *QueryResponse:
		return d.Matches == nil && scanInto(data, d, (*QueryResponse).scan)
	case *BatchRequest:
		return d.Queries == nil && scanInto(data, d, (*BatchRequest).scan)
	case *BatchResponse:
		return d.Responses == nil && scanInto(data, d, (*BatchResponse).scan)
	}
	return false
}

func scanInto[T any](data []byte, dst *T, scan func(*T, *pfv.JSONScanner)) bool {
	tmp := *dst
	s := pfv.NewJSONScanner(data)
	if scan(&tmp, s); !s.End() {
		return false
	}
	*dst = tmp
	return true
}

func (r QueryRequest) appendJSON(b []byte) ([]byte, error) {
	b, err := appendQuery(append(b, '{'), r.Query, r.K, r.PTheta)
	return appendTail(b, r.TimeoutMS, r.TraceID), err
}

func (r *QueryRequest) scan(s *pfv.JSONScanner) {
	s.Object(func(key []byte) bool {
		return scanTail(s, key, &r.TimeoutMS, &r.TraceID) || scanQuery(s, key, &r.Query, &r.K, &r.PTheta)
	})
}

func (r BatchRequest) appendJSON(b []byte) ([]byte, error) {
	b, err := pfv.AppendJSONArray(append(b, `{"queries":`...), r.Queries, func(b []byte, it BatchItem) ([]byte, error) {
		b, err := appendQuery(append(pfv.AppendJSONString(append(b, `{"kind":`...), it.Kind), ','), it.Query, it.K, it.PTheta)
		return append(b, '}'), err
	})
	return appendTail(b, r.TimeoutMS, r.TraceID), err
}

func (r *BatchRequest) scan(s *pfv.JSONScanner) {
	s.Object(func(key []byte) bool {
		if string(key) != "queries" {
			return scanTail(s, key, &r.TimeoutMS, &r.TraceID)
		}
		r.Queries = []BatchItem{}
		s.Array(func() {
			var it BatchItem
			s.Object(func(key []byte) bool {
				return scanString(s, key, "kind", &it.Kind) || scanQuery(s, key, &it.Query, &it.K, &it.PTheta)
			})
			r.Queries = append(r.Queries, it)
		})
		return true
	})
}

func (r QueryResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := appendResult(append(b, '{'), r.Matches, r.Stats)
	return appendTail(b, 0, r.TraceID), err
}

func (r *QueryResponse) scan(s *pfv.JSONScanner) {
	s.Object(func(key []byte) bool {
		return scanString(s, key, "trace_id", &r.TraceID) || scanResult(s, key, &r.Matches, &r.Stats)
	})
}

func (r BatchResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := pfv.AppendJSONArray(append(b, `{"responses":`...), r.Responses, func(b []byte, it BatchItemResponse) ([]byte, error) {
		b, err := appendResult(append(b, '{'), it.Matches, it.Stats)
		return append(appendString(appendString(b, "error", it.Error), "code", it.Code), '}'), err
	})
	return appendTail(b, 0, r.TraceID), err
}

func (r *BatchResponse) scan(s *pfv.JSONScanner) {
	s.Object(func(key []byte) bool {
		if string(key) != "responses" {
			return scanString(s, key, "trace_id", &r.TraceID)
		}
		r.Responses = []BatchItemResponse{}
		s.Array(func() {
			var it BatchItemResponse
			s.Object(func(key []byte) bool {
				return scanString(s, key, "error", &it.Error) || scanString(s, key, "code", &it.Code) ||
					scanResult(s, key, &it.Matches, &it.Stats)
			})
			r.Responses = append(r.Responses, it)
		})
		return true
	})
}

// appendQuery appends the "query", "k" and "p_theta" members a QueryRequest
// and a BatchItem share.
func appendQuery(b []byte, q gausstree.Vector, k int, pTheta float64) ([]byte, error) {
	b, err := pfv.AppendJSON(append(b, `"query":`...), q)
	if k != 0 {
		b = strconv.AppendInt(append(b, `,"k":`...), int64(k), 10)
	}
	if pTheta != 0 && err == nil {
		b, err = pfv.AppendJSONFloat(append(b, `,"p_theta":`...), pTheta)
	}
	return b, err
}

func scanQuery(s *pfv.JSONScanner, key []byte, q *gausstree.Vector, k *int, pTheta *float64) bool {
	switch string(key) {
	case "query":
		*q = s.Vector()
	case "k":
		*k = int(s.Int(strconv.IntSize))
	case "p_theta":
		*pTheta = s.Float()
	default:
		return false
	}
	return true
}

// appendString appends the member key: s, omitted when s is empty.
func appendString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return pfv.AppendJSONString(append(append(append(b, ",\""...), key...), "\":"...), s)
}

func scanString(s *pfv.JSONScanner, key []byte, name string, dst *string) bool {
	ok := string(key) == name
	if ok {
		*dst = s.String()
	}
	return ok
}

// appendTail appends a message's optional "timeout_ms" and "trace_id"
// members and closes it.
func appendTail(b []byte, timeoutMS int64, traceID string) []byte {
	if timeoutMS != 0 {
		b = strconv.AppendInt(append(b, `,"timeout_ms":`...), timeoutMS, 10)
	}
	return append(appendString(b, "trace_id", traceID), '}')
}

func scanTail(s *pfv.JSONScanner, key []byte, timeoutMS *int64, traceID *string) bool {
	if string(key) == "timeout_ms" {
		*timeoutMS = s.Int(64)
		return true
	}
	return scanString(s, key, "trace_id", traceID)
}

// appendResult appends the "matches" and "stats" members a QueryResponse and
// a BatchItemResponse share.
func appendResult(b []byte, ms []gausstree.Match, st Stats) ([]byte, error) {
	b, err := pfv.AppendJSONArray(append(b, `"matches":`...), ms, query.AppendJSON)
	b = strconv.AppendUint(append(b, `,"stats":{"page_accesses":`...), st.PageAccesses, 10)
	b = strconv.AppendInt(append(b, `,"nodes_visited":`...), int64(st.NodesVisited), 10)
	b = strconv.AppendInt(append(b, `,"vectors_scored":`...), int64(st.VectorsScored), 10)
	b = strconv.AppendInt(append(b, `,"candidates_retained":`...), int64(st.CandidatesRetained), 10)
	return append(strconv.AppendBool(append(b, `,"early_termination":`...), st.EarlyTermination), '}'), err
}

func scanResult(s *pfv.JSONScanner, key []byte, ms *[]gausstree.Match, st *Stats) bool {
	switch string(key) {
	case "matches":
		*ms = []gausstree.Match{}
		s.Array(func() { *ms = append(*ms, query.ScanResult(s)) })
	case "stats":
		s.Object(func(key []byte) bool {
			switch string(key) {
			case "page_accesses":
				st.PageAccesses = s.Uint()
			case "nodes_visited":
				st.NodesVisited = int(s.Int(strconv.IntSize))
			case "vectors_scored":
				st.VectorsScored = int(s.Int(strconv.IntSize))
			case "candidates_retained":
				st.CandidatesRetained = int(s.Int(strconv.IntSize))
			case "early_termination":
				st.EarlyTermination = s.Bool()
			default:
				return false
			}
			return true
		})
	default:
		return false
	}
	return true
}
