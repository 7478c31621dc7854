package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/client"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/server"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// failingIndex answers every k-MLIQ and every insert with a fixed error, or
// — with hold set — parks its k-MLIQs until the test lets go.
type failingIndex struct {
	server.Index
	err  error
	hold chan struct{}
}

func (f *failingIndex) KMLIQ(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	if f.hold != nil {
		<-f.hold
	}
	return nil, gausstree.QueryStats{}, f.err
}

func (f *failingIndex) InsertAll([]gausstree.Vector) (int, error) { return 0, f.err }

// TestErrorContractTable holds the one error-contract table (wire's) to what
// it promises on both sides of the wire: a row per ErrCode* constant; each
// row's failure, provoked in a real daemon, reaches a real client under the
// row's HTTP status and code and matches the row's sentinel with errors.Is;
// its outcome label is a pre-registered metrics series; and the client sends
// a request again exactly when the row says it was refused before executing.
func TestErrorContractTable(t *testing.T) {
	rows := map[string]wire.ErrorContract{}
	for _, c := range wire.ErrorContracts {
		if _, dup := rows[c.Code]; dup {
			t.Errorf("code %q has two rows", c.Code)
		}
		rows[c.Code] = c
	}
	for name, code := range errCodeConstants(t) {
		if _, ok := rows[code]; !ok {
			t.Errorf("%s = %q has no row", name, code)
		}
		delete(rows, code)
	}
	for code := range rows {
		t.Errorf("row %q belongs to no ErrCode* constant", code)
	}

	// provoke makes a daemon over idx fail a request the way the row says and
	// returns the client's error; the rows without an engine sentinel are the
	// serving layer's own refusals and need its state, not the index's.
	q := gausstree.MustVector(0, []float64{1, 2}, []float64{1, 1})
	ctx := context.Background()
	kmliq := func(cl *client.Client) error { _, _, err := cl.KMLIQ(ctx, q, 1); return err }
	insert := func(cl *client.Client) error { _, err := cl.Insert(ctx, []gausstree.Vector{q}); return err }
	provoke := map[string]func(t *testing.T, cl *client.Client, idx *failingIndex) error{
		wire.ErrCodeReadOnly: func(t *testing.T, cl *client.Client, idx *failingIndex) error { return insert(cl) },
		wire.ErrCodeDegraded: func(t *testing.T, cl *client.Client, idx *failingIndex) error {
			// A storage fault degrades the daemon; the next mutation is refused.
			if err := insert(cl); err == nil {
				t.Fatal("insert into a failing index succeeded")
			}
			return insert(cl)
		},
		wire.ErrCodeSaturated: func(t *testing.T, cl *client.Client, idx *failingIndex) error {
			// One slot, no queue, and a query parked in the slot.
			parked := make(chan error, 1)
			go func() { parked <- kmliq(cl) }()
			waitInFlight(t, cl, 1)
			err := kmliq(cl)
			close(idx.hold)
			<-parked
			return err
		},
	}

	for _, row := range wire.ErrorContracts {
		t.Run(row.Code, func(t *testing.T) {
			idx := &failingIndex{err: errors.New("disk died")}
			if row.Sentinel != nil {
				idx.err = fmt.Errorf("shard 3: %w", row.Sentinel)
			}
			cfg := server.Config{Metrics: obs.NewRegistry(), ReadOnly: row.Code == wire.ErrCodeReadOnly}
			if row.Code == wire.ErrCodeSaturated {
				cfg.MaxInflight, cfg.MaxQueue = 1, -1
				idx.hold = make(chan struct{})
			}
			tree, err := gausstree.New(2)
			if err != nil {
				t.Fatal(err)
			}
			idx.Index = server.TreeIndex(tree)
			srv := server.New(idx, cfg)
			var refused atomic.Int32 // responses carrying the row's code
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, r)
				if strings.Contains(rec.Body.String(), strconv.Quote(row.Code)) {
					refused.Add(1)
				}
				for k, v := range rec.Header() {
					w.Header()[k] = v
				}
				if w.Header().Get("Retry-After") != "" {
					w.Header().Set("Retry-After", "0") // the daemon's hint floors every backoff at a second
				}
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
			}))
			defer func() {
				hs.Close()
				if err := srv.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			const retries = 2
			cl, err := client.New(hs.URL, client.Options{MaxRetries: retries, RetryBase: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			run := provoke[row.Code]
			if run == nil {
				run = func(t *testing.T, cl *client.Client, idx *failingIndex) error { return kmliq(cl) }
			}
			err = run(t, cl, idx)
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != row.Status || apiErr.Code != row.Code {
				t.Fatalf("client saw %v, want an APIError with status %d, code %q", err, row.Status, row.Code)
			}
			if row.Sentinel != nil && !errors.Is(err, row.Sentinel) {
				t.Errorf("client error %v does not match the row's sentinel %v", err, row.Sentinel)
			}
			want := int32(1)
			if row.Retryable {
				want += retries
			}
			if got := refused.Load(); got != want {
				t.Errorf("daemon refused with %q %d times, want %d (retryable: %v)", row.Code, got, want, row.Retryable)
			}
			if retried := row.Code == wire.ErrCodeSaturated || row.Code == wire.ErrCodeDegraded; row.Retryable != retried {
				t.Errorf("row is retryable: %v, but only saturated and degraded refuse before executing", row.Retryable)
			}

			var buf bytes.Buffer
			if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			for _, ep := range []string{"kmliq", "insert", "readyz"} {
				series := fmt.Sprintf(`gaussd_http_requests_total{endpoint=%q,outcome=%q}`, ep, row.Outcome)
				if !strings.Contains(buf.String(), series) {
					t.Errorf("outcome series %s is not pre-registered", series)
				}
			}
		})
	}
}

// errCodeConstants reads wire's ErrCode* constants out of its source, so a
// constant added without a row cannot hide from the test.
func errCodeConstants(t *testing.T) map[string]string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "../wire/wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]string{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if strings.HasPrefix(name.Name, "ErrCode") {
				code, err := strconv.Unquote(spec.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				codes[name.Name] = code
			}
		}
		return false
	})
	if len(codes) == 0 {
		t.Fatal("found no ErrCode* constant in ../wire/wire.go")
	}
	return codes
}

// waitInFlight polls /v1/stats until n requests hold execution slots.
func waitInFlight(t *testing.T, cl *client.Client, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := cl.Stats(context.Background()); err == nil && st.Server.InFlight == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d requests in flight", n)
}
