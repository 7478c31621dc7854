package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestProtocol: the three argument shapes cmd/go sends a vet tool are
// answered, anything else is a usage error.
func TestProtocol(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 ||
		!regexp.MustCompile(`^\S+ version devel buildID=[0-9a-f]{64}\n$`).MatchString(stdout.String()) {
		t.Errorf("-V=full: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-flags"}, &stdout, &stderr); code != 0 || stdout.String() != "[]\n" {
		t.Errorf("-flags: exit %d, stdout %q", code, stdout.String())
	}

	// A config for a package with one clean file: analyzed, nothing found,
	// facts file written.
	dir := t.TempDir()
	src := filepath.Join(dir, "clean.go")
	if err := os.WriteFile(src, []byte("package clean\n\nfunc F() int { return 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "vet.out")
	cfg, err := json.Marshal(map[string]any{
		"ID": "clean", "Compiler": "gc", "Dir": dir, "ImportPath": "clean",
		"GoFiles": []string{src}, "VetxOutput": vetx,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, cfg, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{cfgPath}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Errorf("clean package: exit %d, stderr %q", code, stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not written: %v", err)
	}
	if code := run([]string{filepath.Join(dir, "missing.cfg")}, &stdout, &stderr); code != 1 {
		t.Errorf("unreadable config: exit %d, want 1", code)
	}

	for _, args := range [][]string{nil, {"./..."}, {"-list"}, {"-run", "errwrap", "./..."}, {"-V=full", "x.cfg"}} {
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code == 0 || !strings.HasPrefix(stderr.String(), "usage: go vet -vettool=") {
			t.Errorf("%q: exit %d, stderr %q; want non-zero and the usage line", args, code, stderr.String())
		}
	}
}
