package main

import (
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
	// hot was retired in PR 13; a stale name must not run nothing and exit 0.
	for _, list := range []string{"hot", "fig1,fig8", ""} {
		_, err := parseExperiments(list)
		if err == nil || !strings.Contains(err.Error(), "valid: fig1,") {
			t.Errorf("parseExperiments(%q) error = %v, want one listing the valid names", list, err)
		}
	}
}
