package suite_test

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestRepoIsClean is the dogfood lock: go vet drives a freshly built
// fvlvet over the root module, and every package, test variants included,
// must be free of suite findings. Every invariant violation is either
// fixed or carries a reviewed //lint:ignore justification, so a finding
// here is a regression against DESIGN.md's "Enforced invariants" — fix the
// code or annotate the reviewed exception; do not weaken the analyzer.
// cmd/fvlvet's TestStandaloneCleanOnRepo locks the nested perfbench module.
func TestRepoIsClean(t *testing.T) {
	tool := filepath.Join(t.TempDir(), "fvlvet")
	if out, err := exec.Command("go", "build", "-o", tool, "repro/cmd/fvlvet").CombinedOutput(); err != nil {
		t.Fatalf("building fvlvet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = "../../.."
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}
