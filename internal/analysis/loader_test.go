package analysis

import "testing"

// TestLoaderSingleWorld checks the property every cross-package analyzer
// depends on: one import path resolves to exactly one types.Package, no
// matter how the loader reaches it, so type identity holds across packages.
func TestLoaderSingleWorld(t *testing.T) {
	l := NewLoader("closecheck/testdata/src")
	writer, err := l.Load("repro/internal/writer")
	if err != nil {
		t.Fatal(err)
	}
	if writer.Info == nil || len(writer.Files) == 0 {
		t.Fatalf("fixture package loaded without syntax or type info")
	}
	again, err := l.Load("repro/internal/writer")
	if err != nil {
		t.Fatal(err)
	}
	if writer.Types != again.Types {
		t.Errorf("loading repro/internal/writer twice produced distinct types.Package instances")
	}
	osPkg, err := l.Import("os")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, imp := range writer.Types.Imports() {
		if imp.Path() == "os" {
			found = true
			if imp != osPkg {
				t.Errorf("the fixture's imported os is a different instance than Import(\"os\")")
			}
		}
	}
	if !found {
		t.Fatalf("fixture repro/internal/writer does not import os")
	}
}
