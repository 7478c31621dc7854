package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// TestParseFlags covers every validation path of the command line: each
// out-of-range value is refused by name, none is replaced by a default.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the error; empty: accepted
	}{
		{"-index x", ""},
		{"", "-index is required"},
		{"-index x -no-such-flag", "not defined"},
		{"-index x -max-inflight 0", "-max-inflight"},
		{"-index x -queue -1", "-queue"},
		{"-index x -queue 0", ""},
		{"-index x -timeout -5s", "-timeout"},
		{"-index x -timeout 0", "-timeout"},
		{"-index x -commit-latency -1ms", "-commit-latency"},
		{"-index x -commit-latency 0", ""},
		{"-index x -cache-mb -1", "-cache-mb"},
		{"-index x -cache-mb 0", "-cache-mb"},
		{fmt.Sprint("-index x -cache-mb ", math.MaxInt>>20), ""},
		{fmt.Sprint("-index x -cache-mb ", math.MaxInt>>20+1), "-cache-mb"}, // 2048 on 386: its bytes overflow an int
		{"-index x -trace-sample -0.1", "-trace-sample"},
		{"-index x -trace-sample 1.5", "-trace-sample"},
		{"-index x -trace-sample NaN", "-trace-sample"},
		{"-index x -trace-sample 1", ""},
		{"-index x -slow-query-ms -1", "-slow-query-ms"},
		{fmt.Sprint("-index x -slow-query-ms ", math.MaxInt64/int64(time.Millisecond)), ""},
		{fmt.Sprint("-index x -slow-query-ms ", math.MaxInt64/int64(time.Millisecond)+1), "-slow-query-ms"}, // overflows a Duration
		{"-index x -scrub-interval -1s", "-scrub-interval"},
		{"-index x -scrub-rate -7", "-scrub-rate"},
		{"-index x -scrub-rate 0", "-scrub-rate"},
		{"-index x -scrub-rate -1", ""},
		{"-index x -chaos", "-chaos requires -ops-addr"},
		{"-index x -chaos -ops-addr :6060", ""},
	}
	for _, c := range cases {
		_, err := parseFlags(strings.Fields(c.args), io.Discard)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q: refused: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%q: error %v, want one naming %q", c.args, err, c.want)
		}
	}
}

// TestParseFlagsValues: what is accepted arrives as given.
func TestParseFlagsValues(t *testing.T) {
	cfg, err := parseFlags(strings.Fields("-index idx -addr :1 -queue 0 -max-inflight 3 -timeout 2s -cache-mb 7 -commit-latency 5ms"+
		" -scrub-interval 1h -scrub-rate -1 -trace-sample 0.5 -slow-query-ms 20 -readonly -chaos -ops-addr :2"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg.server
	if cfg.index != "idx" || cfg.addr != ":1" || cfg.opsAddr != ":2" ||
		cfg.opts.CacheBytes != 7<<20 || cfg.opts.CommitLatency != 5*time.Millisecond || cfg.opts.Fault == nil ||
		sc.MaxQueue != -1 || sc.MaxInflight != 3 || sc.Timeout != 2*time.Second || !sc.ReadOnly ||
		sc.ScrubInterval != time.Hour || sc.ScrubRate != -1 || sc.TraceSample != 0.5 || sc.SlowQueryThreshold != 20*time.Millisecond {
		t.Errorf("parsed %+v", cfg)
	}
	if cfg, err = parseFlags([]string{"-index", "idx"}, io.Discard); err != nil || cfg.opts.Fault != nil || cfg.server.MaxQueue != 128 {
		t.Errorf("defaults: %+v, %v", cfg, err)
	}
}
