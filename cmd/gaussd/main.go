// Command gaussd serves a durable Gauss-tree index over HTTP/JSON: the
// network daemon that turns the library into a service. It opens a
// single-tree page file or a sharded index directory (auto-detected) and
// exposes the /v1 query, mutation and stats API with admission control,
// per-request deadlines and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	gausscli -data faces.csv -index faces.gtree     # build the index once
//	gaussd -index faces.gtree -addr :8442           # serve it
//
//	curl -s localhost:8442/v1/kmliq -d '{"query":{"id":0,"mean":[0.5,0.3],"sigma":[0.05,0.08]},"k":3}'
//
// Flags:
//
//	-addr          listen address (default :8442)
//	-index         page file or sharded directory to serve (required)
//	-max-inflight  concurrently executing requests (default 64)
//	-queue         waiting requests beyond that before 429s (default 128)
//	-timeout       per-request deadline ceiling (default 30s)
//	-readonly      refuse /v1/insert and /v1/delete
//	-commit-latency  group-commit window for the write-ahead log (default 2ms)
//	-cache-mb      buffer cache budget in MB (default 50)
//	-ops-addr      loopback-only operations listener serving GET /metrics
//	               (Prometheus text exposition) and /debug/pprof/
//	               (e.g. 127.0.0.1:6060)
//	-trace-sample  fraction of requests traced end to end, in [0,1]
//	-slow-query-ms log any request at least this slow as a completed trace,
//	               regardless of sampling
//	-slow-query-log file receiving trace/slow-query JSON lines (default stderr)
//	-scrub-interval run the background integrity scrubber this often
//	               (verifies page checksums, node structure and the WAL tail;
//	               0 = disabled)
//	-scrub-rate    scrubber page reads per second (default 256, -1 = unthrottled)
//	-chaos         enable runtime fault injection, armed via POST /debug/fault
//	               on the ops listener (requires -ops-addr; off by default and
//	               completely absent from the hot path until armed)
//
// An out-of-range value exits 2; none is replaced by a default.
//
// A storage fault — injected or real — degrades the daemon instead of
// killing it: reads keep serving the last committed snapshot, mutations
// answer 503 with code "degraded", /readyz flips to 503, and a supervisor
// reopens the index from its files (replaying the write-ahead log) until the
// daemon is healthy again. No restart, no lost acknowledged write.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/server"
)

// config is everything the command line decides.
type config struct {
	addr, index string
	opsAddr     string // empty: no operations listener
	slowLog     string // trace sink path; empty is stderr
	// opts is shared with the supervisor's reopen, so a healed index comes
	// back with the same cache, commit and fault-layer shape.
	opts gausstree.Options
	// server holds the flag-decided fields; main adds the sinks and Reopen.
	server server.Config
}

// parseFlags parses and validates the command line. Every out-of-range
// value is refused: none is replaced by a default behind the operator's back.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("gaussd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8442", "listen address")
		index    = fs.String("index", "", "index to serve: a page file (gausstree.Open) or a sharded directory (gausstree.OpenSharded)")
		inflight = fs.Int("max-inflight", 64, "maximum concurrently executing requests (must be >= 1)")
		queue    = fs.Int("queue", 128, "maximum requests waiting for an execution slot, beyond that: 429 (0 = reject as soon as all slots are busy)")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request deadline ceiling (must be positive)")
		readonly = fs.Bool("readonly", false, "refuse mutations (safe for horizontal read replicas)")
		commitLt = fs.Duration("commit-latency", 0, "group-commit window: inserts wait at most this long to share one WAL fsync (0 = default 2ms; longer = fewer fsyncs, higher ack latency)")
		cacheMB  = fs.Int("cache-mb", 50, "buffer cache budget in MB (must be >= 1)")
		opsAddr  = fs.String("ops-addr", "", "expose GET /metrics and /debug/pprof/ on this loopback-only address (e.g. 127.0.0.1:6060 or :6060); empty = disabled")
		traceSmp = fs.Float64("trace-sample", 0, "fraction of requests traced end to end, in [0,1] (0 = off); sampled traces go to -slow-query-log")
		slowMS   = fs.Int64("slow-query-ms", 0, "log any request at least this slow as a completed trace, regardless of -trace-sample (0 = off)")
		slowLog  = fs.String("slow-query-log", "", "file receiving trace and slow-query JSON lines, appended (empty = stderr)")
		scrubInt = fs.Duration("scrub-interval", 0, "run the background integrity scrubber this often while healthy (0 = disabled)")
		scrubPPS = fs.Int("scrub-rate", 256, "scrubber page reads per second (positive, or -1 = unthrottled)")
		chaos    = fs.Bool("chaos", false, "enable runtime fault injection, armed via POST /debug/fault on the ops listener (requires -ops-addr)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *index == "" {
		fs.Usage()
		return config{}, errors.New("-index is required")
	}
	for _, bad := range []struct {
		refuse bool
		msg    string
	}{
		{*inflight < 1, "-max-inflight must be at least 1"},
		{*queue < 0, "-queue must not be negative"},
		{*timeout <= 0, "-timeout must be positive"},
		{*commitLt < 0, "-commit-latency must not be negative"},
		// Above its bound, the byte count would overflow into "default".
		{*cacheMB < 1 || *cacheMB > math.MaxInt>>20, fmt.Sprintf("-cache-mb must be in [1, %d]", math.MaxInt>>20)},
		{!(*traceSmp >= 0 && *traceSmp <= 1), "-trace-sample must be in [0,1]"}, // NaN included
		// Above its bound, the threshold would overflow into "off".
		{*slowMS < 0 || *slowMS > math.MaxInt64/int64(time.Millisecond), fmt.Sprintf("-slow-query-ms must be in [0, %d]", math.MaxInt64/int64(time.Millisecond))},
		{*scrubInt < 0, "-scrub-interval must not be negative"},
		{*scrubPPS < -1 || *scrubPPS == 0, "-scrub-rate must be positive, or -1 for unthrottled"},
		// Chaos without an ops listener would be unarmable dead weight, and
		// the ops listener is what keeps the fault surface loopback-only.
		{*chaos && *opsAddr == "", "-chaos requires -ops-addr (faults are armed via POST /debug/fault on the ops listener)"},
	} {
		if bad.refuse {
			return config{}, errors.New(bad.msg)
		}
	}
	maxQueue := *queue
	if maxQueue == 0 {
		// The operator said "no waiting"; Config's zero value means
		// "default", so translate to its explicit no-queue encoding.
		maxQueue = -1
	}
	var injector *gausstree.FaultInjector
	if *chaos {
		injector = gausstree.NewFaultInjector()
	}
	return config{
		addr: *addr, index: *index, opsAddr: *opsAddr, slowLog: *slowLog,
		opts: gausstree.Options{CacheBytes: *cacheMB << 20, CommitLatency: *commitLt, Fault: injector},
		server: server.Config{
			MaxInflight:        *inflight,
			MaxQueue:           maxQueue,
			Timeout:            *timeout,
			ReadOnly:           *readonly,
			TraceSample:        *traceSmp,
			SlowQueryThreshold: time.Duration(*slowMS) * time.Millisecond,
			ScrubInterval:      *scrubInt,
			ScrubRate:          *scrubPPS,
		},
	}, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gaussd:", err)
		os.Exit(2)
	}
	ops, injector, opts := cfg.opsAddr, cfg.opts.Fault, cfg.opts

	idx, err := openIndex(cfg.index, opts)
	fail(err)
	fmt.Printf("gaussd: serving %s index %s: %d vectors, %d-d, %s leaves\n", idx.Kind(), cfg.index, idx.Len(), idx.Dim(), idx.LeafFormat())

	// The metric registry only exists when something can scrape it: with no
	// ops listener the request path skips metric updates entirely.
	var reg *obs.Registry
	if ops != "" {
		reg = obs.NewRegistry()
		l, err := listenOps(ops)
		fail(err)
		fmt.Printf("gaussd: metrics on http://%s/metrics, pprof on http://%s/debug/pprof/\n", l.Addr(), l.Addr())
		if injector != nil {
			fmt.Printf("gaussd: CHAOS enabled — arm faults via POST http://%s/debug/fault\n", l.Addr())
		}
		go func() {
			if err := serveOps(l, reg, injector); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "gaussd: ops listener:", err)
			}
		}()
	}

	var traceLog *os.File
	if cfg.server.TraceSample > 0 || cfg.server.SlowQueryThreshold > 0 {
		traceLog = os.Stderr
		if cfg.slowLog != "" {
			traceLog, err = os.OpenFile(cfg.slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			fail(err)
			defer traceLog.Close()
		}
	}

	sc := cfg.server
	sc.Metrics = reg
	sc.TraceLog = traceLogWriter(traceLog)
	// The self-healing supervisor: reopen the same index path with the same
	// options (WAL replay restores every acknowledged write).
	sc.Reopen = func() (server.Index, error) { return openIndex(cfg.index, opts) }
	srv := server.New(idx, sc)

	// Serve until SIGINT/SIGTERM, then drain in-flight queries (bounded by
	// one -timeout so a stuck query cannot wedge the restart) and sync/close
	// the index — the daemon's answer to the durable engine's crash safety:
	// a clean stop never needs recovery at all.
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(cfg.addr) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fail(err)
	case s := <-sig:
		fmt.Printf("gaussd: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), sc.Timeout)
		defer cancel()
		fail(srv.Shutdown(ctx))
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
		fmt.Println("gaussd: stopped")
	}
}

// traceLogWriter converts the optional log file into the server's trace
// sink; the explicit nil keeps a nil *os.File from arriving as a non-nil
// io.Writer interface.
func traceLogWriter(f *os.File) io.Writer {
	if f == nil {
		return nil
	}
	return f
}

// listenOps binds the operations listener, restricted to loopback: the
// pprof endpoints expose heap contents and symbol tables and /metrics
// leaks workload shape, so both are scraped in place without ever putting
// the surface on the query network. A bare ":port" binds 127.0.0.1; any
// explicit non-loopback host is refused.
func listenOps(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("gaussd: invalid -ops-addr %q: %w", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	if host != "localhost" {
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			return nil, fmt.Errorf("gaussd: -ops-addr %q is not loopback-only (use 127.0.0.1, ::1 or localhost)", addr)
		}
	}
	return net.Listen("tcp", net.JoinHostPort(host, port))
}

// serveOps serves /metrics and the pprof handlers on a dedicated mux
// (never the query mux, and never http.DefaultServeMux) so the operations
// surface stays isolated from the /v1 API. With -chaos it additionally
// serves the fault-injection controls — on the same loopback-only listener,
// so faults can only ever be armed from the daemon's own host.
func serveOps(l net.Listener, reg *obs.Registry, inj *gausstree.FaultInjector) error {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if inj != nil {
		registerFaultHandlers(mux, inj)
	}
	return http.Serve(l, mux)
}

// registerFaultHandlers exposes the chaos controls: POST a
// gausstree.FaultSchedule to arm, GET the live status (armed flag, injected
// counts by operation, time remaining), DELETE to disarm. Arming replaces
// any previous schedule atomically.
func registerFaultHandlers(mux *http.ServeMux, inj *gausstree.FaultInjector) {
	writeStatus := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(inj.Status())
	}
	mux.HandleFunc("POST /debug/fault", func(w http.ResponseWriter, r *http.Request) {
		var sched gausstree.FaultSchedule
		dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sched); err != nil {
			http.Error(w, "gaussd: decoding fault schedule: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := inj.Arm(sched); err != nil {
			http.Error(w, "gaussd: "+err.Error(), http.StatusBadRequest)
			return
		}
		writeStatus(w)
	})
	mux.HandleFunc("GET /debug/fault", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w)
	})
	mux.HandleFunc("DELETE /debug/fault", func(w http.ResponseWriter, r *http.Request) {
		inj.Disarm()
		writeStatus(w)
	})
}

// openIndex auto-detects the index layout: a directory holding a shards.json
// manifest is a sharded index, anything else a single page file.
func openIndex(path string, opts gausstree.Options) (server.Index, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		if _, err := os.Stat(filepath.Join(path, "shards.json")); err == nil {
			s, err := gausstree.OpenSharded(path, opts)
			if err != nil {
				return nil, err
			}
			return server.ShardedIndex(s), nil
		}
		return nil, fmt.Errorf("gaussd: %s is a directory without a sharded index manifest", path)
	}
	t, err := gausstree.Open(path, opts)
	if err != nil {
		return nil, err
	}
	return server.TreeIndex(t), nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gaussd:", err)
		os.Exit(1)
	}
}
