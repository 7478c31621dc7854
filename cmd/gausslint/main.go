// Command gausslint is the project's static-analysis multichecker: it runs
// the internal/analysis suite (epochorder, lockorder, poolreset, errwrap,
// ctxflow, waldurable, obsregister, plus the stock nilness/unusedwrite
// passes) over Go packages.
//
// Two modes:
//
//	gausslint ./...            standalone: load, analyze, print findings
//	go vet -vettool=gausslint  unitchecker: driven per package by cmd/go
//
// The vettool mode implements the cmd/go unit-checking protocol (-V=full,
// -flags, and a *.cfg JSON file per package), so `go vet
// -vettool=$(which gausslint) ./...` shares the build cache with ordinary
// vet runs. Exit status: 0 clean, 1 internal error, 2 findings (vettool
// convention).
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/gauss-tree/gausstree/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// cmd/go probes vettool capabilities before any package runs.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			return printVersion()
		case args[0] == "-flags":
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return unitcheck(args[0])
		}
	}

	fs := flag.NewFlagSet("gausslint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: gausslint [-run name,...] [package ...]\n       go vet -vettool=$(command -v gausslint) ./...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	analyzers, err := analysis.ByName(*runNames)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gausslint:", err)
		return 1
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	found, err := analysis.Run(os.Stdout, ".", patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gausslint:", err)
		return 1
	}
	if found {
		return 2
	}
	return 0
}

// printVersion implements -V=full: cmd/go keys its action cache on this
// line, so it must change whenever the binary does — hash the executable.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gausslint:", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gausslint:", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, "gausslint:", err)
		return 1
	}
	fmt.Printf("%s version devel buildID=%x\n", exe, h.Sum(nil))
	return 0
}

func unitcheck(cfgPath string) int {
	found, err := analysis.UnitCheck(os.Stderr, cfgPath, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "gausslint:", err)
		return 1
	}
	if found {
		return 2
	}
	return 0
}
