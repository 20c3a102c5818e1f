// Command hyperion-lint is the multichecker for the hyperion invariant
// analyzers (see DESIGN.md "Static analysis & invariant enforcement"):
//
//	errsink      Sync/Close/Flush/Truncate errors are not silently dropped
//	noallocmark  //hyperion:noalloc functions contain no allocating constructs
//	padalign     //hyperion:cacheline structs are cache-line multiples
//	bracket      BeginWrite/EndWrite and Pin stay in shardWrite/shardRead;
//	             tree mutations and WAL enqueues stay in shardWrite bodies
//
// Usage:
//
//	hyperion-lint [packages]     # defaults to ./...
//
// Exit status is 0 when no findings survive //nolint filtering, 1 otherwise,
// 2 on a load failure. CI runs it over ./... on every push.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
)

func main() {
	list := flag.Bool("list", false, "print registered analyzers and exit")
	flag.Parse()

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyperion-lint:", err)
		os.Exit(2)
	}
	loader := load.NewLoader(wd)
	pkgs, err := loader.Roots(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyperion-lint:", err)
		os.Exit(2)
	}

	bad := false
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			for _, e := range pkg.Errors {
				fmt.Fprintf(os.Stderr, "hyperion-lint: %s: %v\n", pkg.PkgPath, e)
			}
			bad = true
			continue
		}
		findings, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyperion-lint:", err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(f)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}
