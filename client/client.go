// Package client is the Go client for gaussd, the Gauss-tree query daemon.
// It speaks the HTTP/JSON wire format of the daemon's /v1 API, pools
// connections through a shared http.Transport, propagates context deadlines
// to the server (so a query cancelled client-side is also abandoned
// server-side), and retries rejected-before-execution responses — admission
// control 429s and degraded-daemon 503s — with jittered exponential backoff,
// honoring the server's Retry-After hint and bounded by a per-client retry
// budget so a client fleet cannot amplify an outage into a retry storm.
//
// Only those two rejections are ever retried automatically: both are issued
// before the daemon touches its index, so a retry can never duplicate work,
// mutations included. A transport-level failure (connection reset, EOF
// mid-response) is ambiguous — the mutation may or may not have committed —
// and is therefore always surfaced to the caller instead of retried.
//
// The client exposes the same vocabulary as the in-process index: queries
// take gausstree.Vector and return []gausstree.Match plus
// gausstree.QueryStats, and invalid queries are reported as errors matching
// errors.Is(err, gausstree.ErrInvalidQuery) — code written against the
// library needs only the construction site changed to run remote.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// ErrSaturated is reported (wrapped in an *APIError) when the daemon's
// admission control rejected the request and every retry; callers should
// back off before trying again.
var ErrSaturated = errors.New("client: server saturated")

// ErrDegraded is reported (wrapped in an *APIError) when the daemon refused
// a mutation because it is degraded after a storage fault and every retry
// found it still degraded. The rejection happens before the index is
// touched, so the mutation did not execute; the daemon's supervisor is
// healing it and the request can be retried later.
var ErrDegraded = errors.New("client: daemon degraded")

// APIError is a non-2xx response from the daemon.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable error code ("invalid_query", ...).
	Code string
	// Message is the server's human-readable error text.
	Message string
	// Inserted is the durably applied prefix of a partially failed
	// /v1/insert (0 for every other endpoint).
	Inserted int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gaussd: %s (http %d, code %s)", e.Message, e.StatusCode, e.Code)
}

// Unwrap maps the wire error code back onto a typed sentinel — the one in
// the code's row of wire's error contract, which for engine errors is the
// gausstree package's, so errors.Is works identically for local and remote
// indexes; ErrSaturated and ErrDegraded for the two refusals the serving
// layer itself makes and this client retries.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case wire.ErrCodeSaturated:
		return ErrSaturated
	case wire.ErrCodeDegraded:
		return ErrDegraded
	}
	return wire.ContractOfCode(e.Code).Sentinel
}

// Options tune a Client; the zero value is production-ready.
type Options struct {
	// HTTPClient overrides the pooled default (custom TLS, proxies,
	// instrumentation). The default client keeps up to 128 idle connections
	// per daemon so concurrent query streams reuse TCP sessions.
	HTTPClient *http.Client
	// MaxRetries bounds retries per request (default 4; negative disables
	// retrying). Only rejected-before-execution responses are retried —
	// admission-control 429s and degraded-daemon 503s — which are
	// guaranteed not to have executed, so retrying never duplicates work,
	// mutations included.
	MaxRetries int
	// RetryBase is the first backoff step (default 50ms); each retry
	// doubles it, a ±50% jitter decorrelates competing clients, and the
	// server's Retry-After is respected as a floor when present.
	RetryBase time.Duration
	// RetryBudget caps retries across all of the client's concurrent
	// requests: a token bucket holding this many tokens, refilled at one
	// token per second, where each individual retry spends one. When the
	// bucket is empty the rejection is returned immediately instead of
	// retried, so a saturated or degraded daemon sees the client fleet's
	// retry pressure decay to its refill rate rather than multiply.
	// Default 32; negative disables the budget (retries bounded only by
	// MaxRetries).
	RetryBudget int
}

// Client is a gaussd client. It is safe for concurrent use; its zero value
// is not usable — construct with New.
type Client struct {
	base    *url.URL
	hc      *http.Client
	retries int
	base0   time.Duration
	budget  *retryBudget // nil when the budget is disabled
}

// New builds a client for the daemon at baseURL (e.g. "http://10.0.0.7:8442"
// or just "10.0.0.7:8442"; a missing scheme defaults to http).
func New(baseURL string, opts ...Options) (*Client, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q has no host", baseURL)
	}
	hc := o.HTTPClient
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 128
		hc = &http.Client{Transport: tr}
	}
	retries := o.MaxRetries
	switch {
	case retries == 0:
		retries = 4
	case retries < 0:
		retries = 0
	}
	base0 := o.RetryBase
	if base0 <= 0 {
		base0 = 50 * time.Millisecond
	}
	var budget *retryBudget
	switch {
	case o.RetryBudget == 0:
		budget = newRetryBudget(32)
	case o.RetryBudget > 0:
		budget = newRetryBudget(float64(o.RetryBudget))
	}
	return &Client{base: u, hc: hc, retries: retries, base0: base0, budget: budget}, nil
}

// Close releases idle pooled connections. In-flight requests are unaffected.
func (c *Client) Close() {
	c.hc.CloseIdleConnections()
}

// KMLIQ answers a k-most-likely identification query with certified
// probabilities against the remote index.
func (c *Client) KMLIQ(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	return c.query(ctx, "/v1/kmliq", wire.QueryRequest{Query: q, K: k})
}

// KMLIQRanked answers a k-MLIQ without probability values; returned matches
// carry log densities and NaN probabilities, like the local ranked query.
func (c *Client) KMLIQRanked(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	return c.query(ctx, "/v1/kmliq-ranked", wire.QueryRequest{Query: q, K: k})
}

// TIQ answers a threshold identification query: every object with
// P(v|q) ≥ pTheta.
func (c *Client) TIQ(ctx context.Context, q gausstree.Vector, pTheta float64) ([]gausstree.Match, gausstree.QueryStats, error) {
	return c.query(ctx, "/v1/tiq", wire.QueryRequest{Query: q, PTheta: pTheta})
}

func (c *Client) query(ctx context.Context, path string, req wire.QueryRequest) ([]gausstree.Match, gausstree.QueryStats, error) {
	req.TraceID = traceIDFrom(ctx)
	var resp wire.QueryResponse
	err := c.do(ctx, path, func() any {
		// Recomputed per attempt: after a 429 backoff the remaining budget
		// has shrunk, and the server must not outlive the client's wait.
		req.TimeoutMS = timeoutMS(ctx)
		return req
	}, &resp)
	if err != nil {
		return nil, gausstree.QueryStats{}, err
	}
	captureTraceID(ctx, resp.TraceID)
	return resp.Matches, resp.Stats.ToQueryStats(), nil
}

// Kind selects a batched query's semantics.
type Kind string

// The batchable query kinds.
const (
	KindKMLIQ       Kind = wire.KindKMLIQ
	KindKMLIQRanked Kind = wire.KindKMLIQRanked
	KindTIQ         Kind = wire.KindTIQ
)

// Query is one identification query of a batch.
type Query struct {
	Kind   Kind
	Query  gausstree.Vector
	K      int     // k-MLIQ kinds
	PTheta float64 // KindTIQ
}

// Result is one batched query's outcome: matches and statistics, or Err.
type Result struct {
	Matches []gausstree.Match
	Stats   gausstree.QueryStats
	Err     error
}

// Batch executes many queries in one round trip; the daemon runs them
// through its worker pool and returns per-query results in request order.
// Per-query failures land in the corresponding Result.Err; Batch itself
// fails only when the whole request does.
func (c *Client) Batch(ctx context.Context, queries []Query) ([]Result, error) {
	items := make([]wire.BatchItem, len(queries))
	for i, q := range queries {
		items[i] = wire.BatchItem{Kind: string(q.Kind), Query: q.Query, K: q.K, PTheta: q.PTheta}
	}
	var resp wire.BatchResponse
	err := c.do(ctx, "/v1/batch", func() any {
		return wire.BatchRequest{Queries: items, TimeoutMS: timeoutMS(ctx), TraceID: traceIDFrom(ctx)}
	}, &resp)
	if err != nil {
		return nil, err
	}
	if len(resp.Responses) != len(queries) {
		return nil, fmt.Errorf("client: batch returned %d results for %d queries", len(resp.Responses), len(queries))
	}
	captureTraceID(ctx, resp.TraceID)
	out := make([]Result, len(resp.Responses))
	for i, r := range resp.Responses {
		out[i] = Result{Matches: r.Matches, Stats: r.Stats.ToQueryStats()}
		if r.Error != "" {
			out[i].Err = &APIError{StatusCode: http.StatusOK, Code: r.Code, Message: r.Error}
		}
	}
	return out, nil
}

// Insert durably adds vectors to the remote index. On a partial failure the
// returned count is the durably applied prefix reported by the daemon, so
// the caller knows exactly which suffix to retry.
func (c *Client) Insert(ctx context.Context, vs []gausstree.Vector) (int, error) {
	var resp wire.InsertResponse
	if err := c.do(ctx, "/v1/insert", func() any { return wire.InsertRequest{Vectors: vs} }, &resp); err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return apiErr.Inserted, err
		}
		return 0, err
	}
	return resp.Inserted, nil
}

// Delete removes one stored copy of the exact vector from the remote index
// and reports whether one was found.
func (c *Client) Delete(ctx context.Context, v gausstree.Vector) (bool, error) {
	var resp wire.DeleteResponse
	if err := c.do(ctx, "/v1/delete", func() any { return wire.DeleteRequest{Vector: v} }, &resp); err != nil {
		return false, err
	}
	return resp.Found, nil
}

// Stats describes the remote daemon and its index.
type Stats = wire.StatsResponse

// Stats fetches the daemon's index and admission-control statistics.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var resp wire.StatsResponse
	if err := c.get(ctx, "/v1/stats", &resp); err != nil {
		return Stats{}, err
	}
	return resp, nil
}

// Ready probes /readyz; nil means the daemon is healthy and accepting
// mutations. A degraded or recovering daemon returns an error matching
// errors.Is(err, ErrDegraded) that carries the serving state and the
// degrade reason; /healthz (Health) stays green throughout, so Ready is the
// probe for load-balancer membership and Health for liveness.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base.JoinPath("/readyz").String(), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	var rr wire.ReadyResponse
	derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rr)
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	if derr == nil && rr.State != "" {
		if rr.Reason != "" {
			return fmt.Errorf("client: daemon not ready (%s: %s): %w", rr.State, rr.Reason, ErrDegraded)
		}
		return fmt.Errorf("client: daemon not ready (%s): %w", rr.State, ErrDegraded)
	}
	return fmt.Errorf("client: readiness check returned %s", resp.Status)
}

// Health probes /healthz; nil means the daemon is up and serving.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base.JoinPath("/healthz").String(), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: health check returned %s", resp.Status)
	}
	return nil
}

// timeoutMS converts the context deadline into the wire timeout field so the
// server abandons work the client will never read.
func timeoutMS(ctx context.Context) int64 {
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			return ms
		}
		return 1
	}
	return 0
}

// do POSTs a JSON body and decodes the JSON response, retrying
// rejected-before-execution responses (429 saturated, 503 degraded) within
// the per-request MaxRetries and the per-client retry budget. makeBody is
// invoked per attempt so deadline-derived fields (timeout_ms) reflect the
// budget actually remaining after any backoff sleeps. Transport failures
// return immediately: whether the request executed is unknowable, so
// retrying could duplicate a mutation.
func (c *Client) do(ctx context.Context, path string, makeBody func() any, dst any) error {
	u := c.base.JoinPath(path).String()
	for attempt := 0; ; attempt++ {
		payload, err := wire.Append(make([]byte, 0, 1024), makeBody())
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		retryAfter, err := c.roundTrip(req, dst)
		if err == nil {
			return nil
		}
		var apiErr *APIError
		// Only a refusal the error contract marks rejected-before-execution is
		// sent again — saturation, a degraded daemon healing itself. Everything
		// else, a poisoned-index 503 included, promises nothing about
		// re-execution and is surfaced to the caller.
		if !errors.As(err, &apiErr) || !wire.ContractOfCode(apiErr.Code).Retryable || attempt >= c.retries {
			return err
		}
		if c.budget != nil && !c.budget.allow() {
			return fmt.Errorf("client: retry budget exhausted after attempt %d: %w", attempt+1, err)
		}
		if werr := c.backoff(ctx, attempt, retryAfter); werr != nil {
			return fmt.Errorf("client: giving up after %d attempts: %w (last: %w)", attempt+1, werr, err)
		}
	}
}

// get GETs a JSON resource (no retry loop: reads are cheap to re-issue and
// the stats/health endpoints bypass admission control anyway).
func (c *Client) get(ctx context.Context, path string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base.JoinPath(path).String(), nil)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(req, dst)
	return err
}

// roundTrip executes one HTTP exchange: 2xx decodes into dst, anything else
// becomes an *APIError. The second return value is the Retry-After hint of a
// 429, in seconds (0 when absent).
func (c *Client) roundTrip(req *http.Request, dst any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp.Body)
	if resp.StatusCode/100 != 2 {
		retryAfter := 0
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			retryAfter, _ = strconv.Atoi(ra)
		}
		apiErr := &APIError{StatusCode: resp.StatusCode, Code: wire.ErrCodeInternal}
		var werr wire.Error
		if jerr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&werr); jerr == nil && werr.Error != "" {
			apiErr.Code, apiErr.Message = werr.Code, werr.Error
			apiErr.Inserted = werr.Inserted
		} else {
			apiErr.Message = resp.Status
		}
		return retryAfter, apiErr
	}
	if dst == nil {
		return 0, nil
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		err = wire.Decode(body, dst, false)
	}
	if err != nil {
		return 0, fmt.Errorf("client: decoding response: %w", err)
	}
	return 0, nil
}

// maxBackoff caps the exponential growth so high retry counts neither
// overflow the shift nor sleep for hours.
const maxBackoff = 30 * time.Second

// backoff sleeps before retry attempt+1: exponential from RetryBase capped
// at maxBackoff, floored at the server's Retry-After hint, then ±50%
// jittered — the jitter is applied last so competing clients stay
// decorrelated even when the floor dominates. Interruptible by ctx.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfterSec int) error {
	d := c.base0
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	if ra := time.Duration(retryAfterSec) * time.Second; d < ra {
		d = ra
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // jitter in [d/2, 3d/2)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain consumes and closes a response body so the pooled connection can be
// reused for the next request.
func drain(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	rc.Close()
}

// retryBudget is the client-wide token bucket bounding total retry volume.
// Individual requests still back off exponentially; the budget is the
// second line of defense that keeps many concurrent requests (or many
// sequential failures) from together hammering a struggling daemon — once
// drained, retries are limited to the refill rate of one per second.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	last   time.Time
}

func newRetryBudget(max float64) *retryBudget {
	return &retryBudget{tokens: max, max: max, last: time.Now()}
}

// allow spends one token if available, refilling at one token per second up
// to the bucket's capacity.
func (b *retryBudget) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds()
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
