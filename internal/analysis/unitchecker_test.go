package analysis_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree/internal/analysis"
)

// vetConfigFor writes the config file cmd/go would hand a vet tool for the
// fixture package testdata/src/<pkg>: its sources plus the export data of the
// standard-library packages it imports (from the local build cache).
func vetConfigFor(t *testing.T, pkg string, extra map[string]any) (cfgPath, vetx string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture %s: %v, %d files", pkg, err, len(files))
	}
	out, err := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Export", "sync").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
	}
	tmp := t.TempDir()
	vetx = filepath.Join(tmp, "vet.out")
	cfg := map[string]any{
		"ID": pkg, "Compiler": "gc", "Dir": dir, "ImportPath": pkg,
		"GoFiles": files, "ImportMap": map[string]string{}, "PackageFile": exports,
		"VetxOutput": vetx,
	}
	for k, v := range extra {
		cfg[k] = v
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath = filepath.Join(tmp, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgPath, vetx
}

// TestUnitCheck drives the one driver CI runs the way cmd/go does — a vet
// config file for one package — and requires the diagnostics it prints to be
// exactly the fixture's `// want` set, line for line.
func TestUnitCheck(t *testing.T) {
	cfgPath, vetx := vetConfigFor(t, "poolreset", nil)
	var out bytes.Buffer
	found, err := analysis.UnitCheck(&out, cfgPath, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("UnitCheck reported no findings on a fixture that has some")
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not written: %v", err)
	}

	// file:line -> the want pattern on that line.
	wantRe := regexp.MustCompile(`// want (".*")$`)
	wants := map[string]*regexp.Regexp{}
	files, _ := filepath.Glob(filepath.Join("testdata", "src", "poolreset", "*.go"))
	for _, file := range files {
		abs, _ := filepath.Abs(file)
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				pattern, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("%s:%d: %v", file, i+1, err)
				}
				wants[abs+":"+strconv.Itoa(i+1)] = regexp.MustCompile(pattern)
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments")
	}
	diagRe := regexp.MustCompile(`^(.+:\d+):\d+: poolreset: (.*)$`)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unexpected output line %q", line)
			continue
		}
		want, ok := wants[m[1]]
		if !ok || !want.MatchString(m[2]) {
			t.Errorf("unexpected diagnostic %q", line)
			continue
		}
		delete(wants, m[1])
	}
	for at, want := range wants {
		t.Errorf("%s: no diagnostic matching %q", at, want)
	}
}

// TestUnitCheckVetxOnly: asked only for facts (a dependency of the packages
// under vet), the driver analyzes nothing and still writes the facts file.
func TestUnitCheckVetxOnly(t *testing.T) {
	cfgPath, vetx := vetConfigFor(t, "poolreset", map[string]any{"VetxOnly": true})
	var out bytes.Buffer
	found, err := analysis.UnitCheck(&out, cfgPath, analysis.All())
	if err != nil || found || out.Len() != 0 {
		t.Errorf("VetxOnly: found=%v err=%v output=%q", found, err, out.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not written: %v", err)
	}
}
