// Command gausslint is the project's static-analysis vet tool: it runs the
// internal/analysis suite (errwrap, ctxflow, poolreset) over the packages
// cmd/go hands it:
//
//	go vet -vettool=$(command -v gausslint) ./...
//
// It implements the cmd/go unit-checking protocol (-V=full, -flags, and a
// *.cfg JSON file per package) and nothing else, so a run shares the build
// cache with ordinary vet runs. Exit status: 0 clean, 1 internal or usage
// error, 2 findings (vettool convention).
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/gauss-tree/gausstree/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 {
		switch {
		// cmd/go probes vettool capabilities before any package runs.
		case args[0] == "-V=full":
			return printVersion(stdout, stderr)
		case args[0] == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return unitcheck(args[0], stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: go vet -vettool=$(command -v gausslint) ./...")
	return 1
}

// printVersion implements -V=full: cmd/go keys its action cache on this
// line, so it must change whenever the binary does — hash the executable.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "gausslint:", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, "gausslint:", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, "gausslint:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s version devel buildID=%x\n", exe, h.Sum(nil))
	return 0
}

func unitcheck(cfgPath string, stderr io.Writer) int {
	found, err := analysis.UnitCheck(stderr, cfgPath, analysis.All())
	if err != nil {
		fmt.Fprintln(stderr, "gausslint:", err)
		return 1
	}
	if found {
		return 2
	}
	return 0
}
