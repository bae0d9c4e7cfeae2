// Command fvlvet machine-checks the repo's correctness invariants: the
// rules that previously lived only in DESIGN.md prose — view labels are
// read-only after construction (immutafter), live sessions publish through
// exactly one atomic store of an immutable, unaliased prefix (pubatomic),
// durable artifacts are written sync-then-rename (syncrename), failures flow
// through the internal/faults taxonomy instead of panics and chain-severing
// %v formatting (faultwrap), contexts thread end to end (ctxflow), and
// Close/Sync errors on written files are never discarded (closecheck).
//
// It runs as a go vet tool, which analyzes the packages go vet selects
// (test variants included) over the build cache's export data:
//
//	go vet -vettool=$(which fvlvet) ./...
//
// Passing go vet one or more analyzer flags (for example -immutafter)
// restricts the run to those analyzers. Called without a vet config file,
// fvlvet prints the go vet command line above as its usage and exits 1.
//
// Findings are suppressed line by line with staticcheck-style directives
// carrying a mandatory justification:
//
//	//lint:ignore <analyzer> <reason>
//
// go vet exits nonzero when the tree has findings. A finding means a design
// rule of DESIGN.md ("Enforced invariants") is violated — fix the code, or
// annotate the reviewed exception.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// go vet probes its tool with -V=full before handing it work; answer in
	// the shape cmd/go's tool-ID scanner expects, then defer to the
	// unitchecker protocol when the remaining argument is a vet config.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		// For -V=full the last field must be a buildID the go command can use
		// as the tool's cache key; hash the executable, like x/tools does.
		name := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
		id := "unknown"
		if f, err := os.Open(os.Args[0]); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:16])
			}
			f.Close()
		}
		fmt.Printf("%s version devel buildID=%s\n", name, id)
		return 0
	}
	// go vet also runs `fvlvet -flags` to learn which flags it may forward;
	// the reply is a JSON array of {Name, Bool, Usage} objects.
	if len(args) == 1 && args[0] == "-flags" {
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var flags []jsonFlag
		for _, a := range suite.All() {
			flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
		}
		data, err := json.Marshal(flags)
		if err != nil {
			return 1
		}
		fmt.Println(string(data))
		return 0
	}

	fs := flag.NewFlagSet("fvlvet", flag.ContinueOnError)
	// go vet forwards per-analyzer enable flags when the user selects
	// checks; with none set, the whole suite runs.
	enabled := map[string]*bool{}
	for _, a := range suite.All() {
		enabled[a.Name] = fs.Bool(a.Name, false, "enable only the "+a.Name+" analyzer")
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which fvlvet) ./...")
		return 1
	}

	analyzers := suite.All()
	var selected []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			selected = append(selected, a)
		}
	}
	if len(selected) > 0 {
		analyzers = selected
	}
	return unitcheck(rest[0], analyzers)
}
