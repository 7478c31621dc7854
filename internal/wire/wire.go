// Package wire defines the HTTP/JSON wire format of the gaussd serving
// layer: the typed request and response structs exchanged between the
// internal/server daemon and the public client package. Both sides share
// these definitions, so the format cannot drift between them; the structs
// embed the public gausstree types, whose stable JSON encodings (lowercase
// keys, NaN probabilities as null) define the on-the-wire number handling.
//
// Endpoints (all request bodies are JSON, all responses are JSON):
//
//	POST /v1/kmliq         QueryRequest{query,k}        -> QueryResponse
//	POST /v1/kmliq-ranked  QueryRequest{query,k}        -> QueryResponse
//	POST /v1/tiq           QueryRequest{query,p_theta}  -> QueryResponse
//	POST /v1/batch         BatchRequest                 -> BatchResponse
//	POST /v1/insert        InsertRequest                -> InsertResponse
//	POST /v1/delete        DeleteRequest                -> DeleteResponse
//	GET  /v1/stats                                      -> StatsResponse
//	GET  /healthz                                       -> "ok"
//	GET  /readyz                                        -> ReadyResponse
//
// /healthz is liveness (the process serves HTTP; always 200) and /readyz is
// readiness (200 only while the serving state is healthy; 503 with the
// state in the body while degraded or recovering).
//
// Errors are reported with a non-2xx status and an Error body whose Code is
// one of the ErrCode* constants, so clients can map them back to the typed
// sentinel errors of the gausstree package.
//
// # Who writes the bytes
//
// The four messages of the query path — QueryRequest, QueryResponse,
// BatchRequest and BatchResponse, with the vectors and matches inside them —
// are written by an appender and read by a scanner (pfv.JSONScanner), one
// pass each; Append and Decode are what the server and the client call, and
// the messages' MarshalJSON/UnmarshalJSON go the same way. The appender
// writes exactly the bytes json.Marshal writes. The scanner takes only that
// canonical form (lowercase keys in any order, any white space, strings
// without escapes, no repeated keys) and declines everything else, which
// encoding/json then decodes from the same bytes, field by field: it decides
// every input the scanner declines, errors included, and it is the oracle
// the tests hold both to. Every other message is plain encoding/json.
package wire

import (
	"context"
	"errors"
	"net/http"

	gausstree "github.com/gauss-tree/gausstree"
)

// Query kinds accepted by the batch endpoint.
const (
	KindKMLIQ       = "kmliq"
	KindKMLIQRanked = "kmliq-ranked"
	KindTIQ         = "tiq"
)

// Machine-readable error codes carried by Error.Code.
const (
	// ErrCodeInvalid marks a malformed or invalid request (HTTP 400);
	// clients surface it as gausstree.ErrInvalidQuery.
	ErrCodeInvalid = "invalid_query"
	// ErrCodeSaturated marks an admission-control rejection (HTTP 429);
	// the response carries a Retry-After header.
	ErrCodeSaturated = "saturated"
	// ErrCodeReadOnly marks a mutation against a read-only daemon (HTTP 403).
	ErrCodeReadOnly = "read_only"
	// ErrCodeDeadline marks a query that exceeded its deadline (HTTP 504).
	ErrCodeDeadline = "deadline_exceeded"
	// ErrCodeClosed marks a daemon whose index is shutting down (HTTP 503).
	ErrCodeClosed = "closed"
	// ErrCodeDegraded marks a mutation refused because the daemon is in
	// degraded mode, serving reads while it recovers the index (HTTP 503
	// with a Retry-After header). The mutation was rejected before touching
	// the index, so retrying it is always safe — even for inserts.
	ErrCodeDegraded = "degraded"
	// ErrCodePoisoned marks a mutation refused because an earlier mutation
	// failed mid-flight and poisoned the index against further writes
	// (HTTP 503); clients surface it as gausstree.ErrPoisoned. Unlike
	// ErrCodeDegraded it reports the fault that triggers recovery, not the
	// recovery window itself, and carries no retry promise.
	ErrCodePoisoned = "poisoned"
	// ErrCodeInternal marks any other server-side failure (HTTP 500).
	ErrCodeInternal = "internal"
)

// ErrorContract is one row of the error contract both sides read: what a
// failure looks like as a Go error, on the wire, over HTTP and in the
// daemon's metrics, and whether a client may send the request again.
type ErrorContract struct {
	// Code is the wire code (Error.Code), the row's key.
	Code string
	// Status is the HTTP status the daemon answers with.
	Status int
	// Outcome is the gaussd_http_requests_total outcome label.
	Outcome string
	// Sentinel is the error that means this row: the daemon finds the row
	// of an engine error with errors.Is, the client's APIError unwraps to
	// it. Nil for the rows only the serving layer itself produces (the
	// client has sentinels of its own for the two it retries).
	Sentinel error
	// Retryable marks a refusal made before the request executed, so that
	// sending it again is safe for every endpoint, mutations included.
	Retryable bool
}

// ErrorContracts holds one row per ErrCode* constant, in the order
// ContractOf tries them: ErrPoisoned before ErrClosed, so a poisoned-tree
// rejection keeps its specific code when both sentinels are in one chain;
// the catch-all last.
var ErrorContracts = []ErrorContract{
	{Code: ErrCodeInvalid, Status: http.StatusBadRequest, Outcome: "invalid", Sentinel: gausstree.ErrInvalidQuery},
	{Code: ErrCodeDeadline, Status: http.StatusGatewayTimeout, Outcome: "deadline", Sentinel: context.DeadlineExceeded},
	{Code: ErrCodePoisoned, Status: http.StatusServiceUnavailable, Outcome: "poisoned", Sentinel: gausstree.ErrPoisoned},
	{Code: ErrCodeClosed, Status: http.StatusServiceUnavailable, Outcome: "closed", Sentinel: gausstree.ErrClosed},
	{Code: ErrCodeSaturated, Status: http.StatusTooManyRequests, Outcome: "saturated", Retryable: true},
	{Code: ErrCodeDegraded, Status: http.StatusServiceUnavailable, Outcome: "degraded", Retryable: true},
	{Code: ErrCodeReadOnly, Status: http.StatusForbidden, Outcome: "read_only"},
	{Code: ErrCodeInternal, Status: http.StatusInternalServerError, Outcome: "internal"},
}

// ContractOf returns the row of an engine error: the first whose sentinel
// is in err's chain, the ErrCodeInternal row when none is.
func ContractOf(err error) ErrorContract {
	for _, c := range ErrorContracts {
		if c.Sentinel != nil && errors.Is(err, c.Sentinel) {
			return c
		}
	}
	return ErrorContracts[len(ErrorContracts)-1]
}

// ContractOfCode returns the row of a wire code; a code this build does not
// know (a newer peer's) reads as ErrCodeInternal.
func ContractOfCode(code string) ErrorContract {
	for _, c := range ErrorContracts {
		if c.Code == code {
			return c
		}
	}
	return ErrorContracts[len(ErrorContracts)-1]
}

// Error is the body of every non-2xx response. On a partially applied
// /v1/insert it additionally carries Inserted, the durably applied prefix.
type Error struct {
	Error    string `json:"error"`
	Code     string `json:"code,omitempty"`
	Inserted int    `json:"inserted,omitempty"`
}

// Stats is the wire form of gausstree.QueryStats.
type Stats struct {
	PageAccesses       uint64 `json:"page_accesses"`
	NodesVisited       int    `json:"nodes_visited"`
	VectorsScored      int    `json:"vectors_scored"`
	CandidatesRetained int    `json:"candidates_retained"`
	EarlyTermination   bool   `json:"early_termination"`
}

// FromQueryStats converts query statistics to their wire form
// (gausstree.QueryStats aliases the engine-level query.Stats, so this is
// the only stats conversion the serving layer needs).
func FromQueryStats(s gausstree.QueryStats) Stats {
	return Stats{
		PageAccesses:       s.PageAccesses,
		NodesVisited:       s.NodesVisited,
		VectorsScored:      s.VectorsScored,
		CandidatesRetained: s.CandidatesRetained,
		EarlyTermination:   s.EarlyTermination,
	}
}

// ToQueryStats converts wire statistics back to the public type.
func (s Stats) ToQueryStats() gausstree.QueryStats {
	return gausstree.QueryStats{
		PageAccesses:       s.PageAccesses,
		NodesVisited:       s.NodesVisited,
		VectorsScored:      s.VectorsScored,
		CandidatesRetained: s.CandidatesRetained,
		EarlyTermination:   s.EarlyTermination,
	}
}

// QueryRequest is the body of the three single-query endpoints. K applies to
// the k-MLIQ endpoints, PTheta to /v1/tiq; TimeoutMS, when positive, asks
// the server to bound the query by that deadline (the server additionally
// clamps it to its own -timeout flag).
type QueryRequest struct {
	Query     gausstree.Vector `json:"query"`
	K         int              `json:"k,omitempty"`
	PTheta    float64          `json:"p_theta,omitempty"`
	TimeoutMS int64            `json:"timeout_ms,omitempty"`
	// TraceID, when set, names the server-side trace of this query so a
	// slow-query log line can be correlated with the caller that sent it.
	TraceID string `json:"trace_id,omitempty"`
}

// QueryResponse carries one query's certified matches and statistics.
// Matches is always present ([] when nothing qualified, never null).
type QueryResponse struct {
	Matches []gausstree.Match `json:"matches"`
	Stats   Stats             `json:"stats"`
	// TraceID echoes the request's trace id — or the server-assigned one
	// when the request left it empty and the query was sampled for tracing.
	// Empty when the request was not traced at all.
	TraceID string `json:"trace_id,omitempty"`
}

// BatchItem is one query of a batch: Kind selects the endpoint semantics.
type BatchItem struct {
	Kind   string           `json:"kind"`
	Query  gausstree.Vector `json:"query"`
	K      int              `json:"k,omitempty"`
	PTheta float64          `json:"p_theta,omitempty"`
}

// BatchRequest is the body of /v1/batch. The whole batch occupies one
// admission slot and shares one deadline.
type BatchRequest struct {
	Queries   []BatchItem `json:"queries"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
	// TraceID correlates the whole batch, like QueryRequest.TraceID.
	TraceID string `json:"trace_id,omitempty"`
}

// BatchItemResponse is one query's outcome within a batch: either Matches
// and Stats, or Error. Per-item failures do not fail the batch.
type BatchItemResponse struct {
	Matches []gausstree.Match `json:"matches"`
	Stats   Stats             `json:"stats"`
	Error   string            `json:"error,omitempty"`
	Code    string            `json:"code,omitempty"`
}

// BatchResponse carries the per-item outcomes in request order.
type BatchResponse struct {
	Responses []BatchItemResponse `json:"responses"`
	// TraceID echoes the batch trace id; see QueryResponse.TraceID.
	TraceID string `json:"trace_id,omitempty"`
}

// InsertRequest is the body of /v1/insert.
type InsertRequest struct {
	Vectors []gausstree.Vector `json:"vectors"`
}

// InsertResponse reports how many vectors were durably inserted (the full
// batch on success; see Error.Inserted for partial failures).
type InsertResponse struct {
	Inserted int `json:"inserted"`
}

// DeleteRequest is the body of /v1/delete; the vector must match a stored
// copy exactly (id, means and sigmas).
type DeleteRequest struct {
	Vector gausstree.Vector `json:"vector"`
}

// DeleteResponse reports whether a copy was found and removed.
type DeleteResponse struct {
	Found bool `json:"found"`
}

// ReadyResponse is the body of /readyz.
type ReadyResponse struct {
	// State is the serving state: "healthy", "degraded" or "recovering".
	State string `json:"state"`
	// Reason describes what degraded the daemon; empty while healthy.
	Reason string `json:"reason,omitempty"`
}

// IOStats is the wire form of the page manager's I/O counters.
type IOStats struct {
	LogicalReads  uint64 `json:"logical_reads"`
	CacheHits     uint64 `json:"cache_hits"`
	PhysicalReads uint64 `json:"physical_reads"`
	Writes        uint64 `json:"writes"`
	Seeks         uint64 `json:"seeks"`
}

// WALStats is the wire form of the group-commit write-ahead-log counters
// of a file-backed index; omitted from /v1/stats for memory-backed ones.
type WALStats struct {
	// Fsyncs is the number of log fsyncs issued.
	Fsyncs uint64 `json:"fsyncs"`
	// Records is the number of logical records appended.
	Records uint64 `json:"records"`
	// MeanGroupSize is Records per fsync — how many mutations each group
	// commit amortized.
	MeanGroupSize float64 `json:"mean_group_size"`
	// DurableLSN is the highest fsynced log sequence number.
	DurableLSN uint64 `json:"durable_lsn"`
	// AppendedLSN is the highest appended log sequence number; the gap
	// AppendedLSN−DurableLSN is how many records await their group commit.
	AppendedLSN uint64 `json:"appended_lsn"`
}

// EndpointStats is the lifetime request breakdown of one admission-
// controlled endpoint.
type EndpointStats struct {
	// Served counts requests that completed (successfully or not).
	Served uint64 `json:"served"`
	// Rejected counts requests refused with 429 by admission control.
	Rejected uint64 `json:"rejected"`
}

// ServerStats describes the daemon's admission-control state and lifetime
// request counters.
type ServerStats struct {
	// InFlight is the number of requests currently executing.
	InFlight int `json:"in_flight"`
	// Queued is the number of requests waiting for an execution slot.
	Queued int `json:"queued"`
	// Served counts requests that completed (successfully or not).
	Served uint64 `json:"served"`
	// Rejected counts requests refused with 429 by admission control.
	Rejected uint64 `json:"rejected"`
	// Endpoints breaks Served/Rejected down per admission-controlled
	// endpoint (kmliq, kmliq_ranked, tiq, batch, insert, delete); the
	// uncontrolled stats and healthz endpoints are not listed.
	Endpoints map[string]EndpointStats `json:"endpoints,omitempty"`
}

// BuildInfo identifies the build that produced a response; see
// internal/buildinfo.
type BuildInfo struct {
	// Version is the main module version ("(devel)" for a source build).
	Version string `json:"version"`
	// Revision is the VCS revision the binary was built from.
	Revision string `json:"revision"`
	// Modified reports whether the working tree had local modifications.
	Modified bool `json:"modified"`
	// GoVersion is the Go toolchain that built the binary.
	GoVersion string `json:"go_version"`
}

// ScrubStats are the background integrity scrubber's lifetime counters;
// omitted from /v1/stats when the scrubber is disabled.
type ScrubStats struct {
	// Runs counts completed scrub passes (including failed ones).
	Runs uint64 `json:"runs"`
	// Pages counts pages verified across all passes.
	Pages uint64 `json:"pages"`
	// Errors counts passes that detected corruption (each degrades the
	// daemon).
	Errors uint64 `json:"errors"`
	// LastSeconds is the wall-clock duration of the most recent pass.
	LastSeconds float64 `json:"last_seconds"`
}

// StatsResponse is the body of /v1/stats.
type StatsResponse struct {
	// Backend names the served index type: "tree" or "sharded".
	Backend string `json:"backend"`
	// Dim is the feature dimensionality of the index.
	Dim int `json:"dim"`
	// Len is the number of stored vectors.
	Len int `json:"len"`
	// ShardVectors is Len shard by shard (one entry for a tree): the skew of
	// a partition that follows the data.
	ShardVectors []int `json:"shard_vectors"`
	// LeafFormat names the on-page leaf encoding of the served index:
	// "exact", "float32" or "grid8".
	LeafFormat string `json:"leaf_format"`
	// ReadOnly reports whether mutations are refused.
	ReadOnly bool    `json:"read_only"`
	IO       IOStats `json:"io"`
	// WAL carries the write-ahead-log counters of a file-backed index;
	// null for memory-backed ones (no WAL).
	WAL *WALStats `json:"wal,omitempty"`
	// SnapshotEpoch is the monotone count of committed mutations (the
	// published snapshot's page-reclamation epoch; summed across shards).
	SnapshotEpoch uint64      `json:"snapshot_epoch"`
	Server        ServerStats `json:"server"`
	// ServingState is the daemon's fault-tolerance state: "healthy",
	// "degraded" (mutations refused, reads serve the last committed
	// snapshot) or "recovering" (a reopen is in progress).
	ServingState string `json:"serving_state"`
	// Scrub carries the background integrity scrubber's counters; null when
	// the scrubber is disabled.
	Scrub *ScrubStats `json:"scrub,omitempty"`
	// Build identifies the daemon binary serving the response.
	Build BuildInfo `json:"build"`
}
