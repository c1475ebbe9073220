// Command spatiallint runs the project's static analyzer suite
// (internal/analysis) over Go packages: the concurrency and cursor
// contracts the compiler cannot check — acquire ⇒ release on every
// path for tree pins, cursors, buffer-pool frames and returned release
// funcs; lock-vs-blocking hygiene and lock-order cycles
// (interprocedural); unchecked wire errors; and float equality on
// coordinates. See DESIGN.md §10–§11 and §15.
//
// Usage:
//
//	spatiallint [flags] [packages]
//
//	-C dir        run as if started in dir
//	-disable a,b  disable the named analyzers
//	-json         emit findings as a JSON array instead of text
//	-rules        print the registered rules with descriptions and exit
//
// Packages default to ./... . Exit status: 0 clean, 1 findings,
// 2 load or usage failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spatialtf/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run parses args, runs the suite and returns the exit status.
// Findings and the -rules inventory go to stdout, usage and load errors
// to stderr.
func run(args []string, stderr io.Writer) int {
	flags := flag.NewFlagSet("spatiallint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		chdir   = flags.String("C", "", "run as if started in `dir`")
		disable = flags.String("disable", "", "comma-separated `rules` to disable")
		jsonOut = flags.Bool("json", false, "emit findings as JSON")
		rules   = flags.Bool("rules", false, "print the registered rules with descriptions and exit")
	)
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *rules {
		listRules(os.Stdout)
		return 0
	}

	disabled := make(map[string]bool)
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if analysis.ByName(name) == nil {
			fmt.Fprintf(stderr, "spatiallint: unknown analyzer %q (try -rules)\n", name)
			return 2
		}
		disabled[name] = true
	}
	var suite []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if !disabled[a.Name] {
			suite = append(suite, a)
		}
	}

	pkgs, _, err := analysis.Load(*chdir, flags.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "spatiallint:", err)
		return 2
	}
	diags := analysis.Run(pkgs, suite)

	// Report paths relative to the working directory when possible.
	base := *chdir
	if base == "" {
		base, _ = os.Getwd()
	}
	for i := range diags {
		if rel, err := filepath.Rel(base, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diag{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "spatiallint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "spatiallint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// listRules prints every registered rule with its one-line description
// (the -rules inventory).
func listRules(w io.Writer) {
	for _, a := range analysis.Analyzers() {
		fmt.Fprintf(w, "%-16s %s\n", a.Name, a.Doc)
	}
}
