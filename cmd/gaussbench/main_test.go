package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	got, err := parseExperiments("fig1, ablations")
	if err != nil || len(got) != 2 || !got["fig1"] || !got["ablations"] {
		t.Errorf("parseExperiments(fig1, ablations) = %v, %v", got, err)
	}
	if got, err := parseExperiments("all"); err != nil || len(got) != len(experiments) {
		t.Errorf("parseExperiments(all) = %v, %v; want all %d experiments", got, err, len(experiments))
	}
}

// TestRunFigure1 runs the one experiment that needs no data set and checks
// the paper's §3.1 posteriors come out: 10 %, 13 %, 77 %.
func TestRunFigure1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig1"}, &out); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && strings.HasPrefix(f[0], "O") {
			measured, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "%"), 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			rows = append(rows, fmt.Sprintf("%s=%.0f%%", f[0], measured))
		}
	}
	if got := strings.Join(rows, " "); got != "O1=10% O2=13% O3=77%" {
		t.Errorf("fig1 posteriors %q, want the paper's 10%% / 13%% / 77%%; output:\n%s", got, &out)
	}
}

// TestRunRefusesBadCommandLine: a retired experiment (hot went in PR 13,
// chaos and ingest in PR 20), a misspelt one or a retired flag must not run
// nothing and exit 0 — run refuses it as a usage error naming what is valid.
func TestRunRefusesBadCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "chaos"}, {"-exp", "ingest"}, {"-exp", "hot"}, {"-exp", "fig1,fig8"}, {"-exp", ""},
	} {
		err := run(args, io.Discard)
		if !errors.As(err, &usageError{}) || !strings.Contains(err.Error(), "valid: fig1, fig6a, fig6b, fig7ds1, fig7ds2, headline, ablations, all") {
			t.Errorf("run(%q) error = %v, want a usage error listing the valid names", args, err)
		}
	}
	if err := run([]string{"-n1", "5"}, io.Discard); !errors.As(err, &usageError{}) {
		t.Errorf("run(-n1 5) error = %v, want a usage error", err)
	}
}
