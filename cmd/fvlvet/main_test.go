package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tool is the fvlvet binary the tests drive; TestMain builds it once.
var tool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fvlvet-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tool = filepath.Join(dir, "fvlvet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building fvlvet: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestGoVetVettool exercises the unitchecker protocol for real: go vet
// drives the tool with -V probing, .cfg units, export data and facts files
// over a throwaway module holding one planted finding, and must fail with
// it. The repo itself is locked by suite.TestRepoIsClean (the root module)
// and TestStandaloneCleanOnRepo (the nested perfbench module).
func TestGoVetVettool(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n\ngo 1.24\n",
		"planted.go": "package planted\n\nimport \"os\"\n\n" +
			"func Save(b []byte) error { return os.WriteFile(\"out\", b, 0o644) }\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	vet.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	out, err := vet.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "planted.go:5:") || !strings.Contains(string(out), "os.WriteFile") {
		t.Errorf("go vet -vettool over a planted os.WriteFile = %v, %q; want a nonzero exit reporting planted.go:5", err, out)
	}

	// Without a vet config file the tool only points at go vet.
	out, err = exec.Command(tool, "./...").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "go vet -vettool=") {
		t.Errorf("fvlvet ./... = %v, %q; want exit 1 and the go vet usage line", err, out)
	}
}

// TestStandaloneCleanOnRepo locks the nested perfbench module, which stands
// alone with its own go.mod, so the root's go vet ./... does not reach it:
// every package there, test variants included, must be free of suite
// findings. A finding is a regression against DESIGN.md's "Enforced
// invariants": fix the code or annotate the reviewed exception; do not
// weaken the analyzer.
func TestStandaloneCleanOnRepo(t *testing.T) {
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = "../../perfbench"
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool in perfbench: %v\n%s", err, out)
	}
}

// TestListNamesEveryAnalyzer keeps the -flags reply wired to the suite: go
// vet learns from it which analyzer flags it may forward, so it must name
// every analyzer.
func TestListNamesEveryAnalyzer(t *testing.T) {
	out, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("fvlvet -flags: %v", err)
	}
	var flags []struct{ Name string }
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("fvlvet -flags: %v\n%s", err, out)
	}
	named := map[string]bool{}
	for _, f := range flags {
		named[f.Name] = true
	}
	for _, name := range []string{"closecheck", "ctxflow", "faultwrap", "immutafter", "pubatomic", "syncrename"} {
		if !named[name] {
			t.Errorf("-flags reply lacks %s:\n%s", name, out)
		}
	}
}
