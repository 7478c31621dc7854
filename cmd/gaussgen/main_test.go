package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlags covers every validation path of the command line: a bad
// value is refused by name, none falls back to the paper default.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the error; empty: accepted
	}{
		{"-out x.csv", ""},
		{"-out x.csv -set ds1 -n 0 -nq 0", ""},
		{"", "-out is required"},
		{"-out x.csv -no-such-flag", "not defined"},
		{"-out x.csv -set ds3", "unknown -set"},
		{"-out x.csv -n -5", "-n must"},
		{"-out x.csv -nq -3", "-nq must"},
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
	cfg, err := parseFlags(strings.Fields("-set ds1 -n 50 -nq 7 -seed 9 -out o.csv -queries q.csv"), io.Discard)
	if want := (config{set: "ds1", n: 50, nq: 7, out: "o.csv", queries: "q.csv", seed: 9}); err != nil || cfg != want {
		t.Errorf("parsed %+v, %v; want %+v", cfg, err, want)
	}
}
