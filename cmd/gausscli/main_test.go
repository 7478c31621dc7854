package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlags covers every validation path of the command line: a bad
// value is refused by name before any data is loaded.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the error; empty: accepted
	}{
		{"-data d.csv -kmliq 1,2", ""},
		{"-index i.gtree -tiq 1,2 -p 1", ""},
		{"-data d.csv -index i.gtree", ""}, // build only
		{"-addr :8442 -kmliq 1,2 -k 1", ""},
		{"-data d.csv -kmliq 1,2 -no-such-flag", "not defined"},
		{"-data d.csv -kmliq 1,2 -k 0", "-k"},
		{"-data d.csv -kmliq 1,2 -k -3", "-k"},
		{"-data d.csv -tiq 1,2 -p 1.5", "-p"},
		{"-data d.csv -tiq 1,2 -p 0", "-p"},
		{"-data d.csv -tiq 1,2 -p -0.1", "-p"},
		{"-data d.csv -tiq 1,2 -p NaN", "-p"},
		{"-addr :8442 -data d.csv -kmliq 1,2", "-addr"},
		{"-addr :8442 -index i.gtree -kmliq 1,2", "-addr"},
		{"-kmliq 1,2", "nothing to do"},
		{"", "nothing to do"},
		{"-data d.csv", "nothing to do"},
		{"-index i.gtree", "nothing to do"},
		{"-addr :8442", "nothing to do"},
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
	cfg, err := parseFlags(strings.Fields("-index i -kmliq 1,2 -tiq 3,4 -k 7 -p 0.5"), io.Discard)
	if want := (config{index: "i", kmliq: "1,2", tiq: "3,4", k: 7, p: 0.5}); err != nil || cfg != want {
		t.Errorf("parsed %+v, %v; want %+v", cfg, err, want)
	}
}
