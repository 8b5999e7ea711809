package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// A subdirectory with its own go.mod is another module: the go tool's ./...
// does not descend into it, and neither may the lint (bench/ is one).
func TestExpandSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for rel, body := range map[string]string{
		"a/a.go":          "package a\n",
		"nested/go.mod":   "module nested\n",
		"nested/n.go":     "package n\n",
		"nested/sub/s.go": "package s\n",
	} {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := expand(root, []string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != filepath.Join(root, "a") {
		t.Fatalf("expand = %v, want only %s", dirs, filepath.Join(root, "a"))
	}
}

// A directive naming an analyzer that is not in the registry (what deleting
// an analyzer leaves behind in the tree) must be reported, not silently
// accepted; one naming a registered analyzer must not be.
func TestUnregisteredAnalyzerDirectiveIsReported(t *testing.T) {
	const src = `package p

func f(a, b float64) bool {
	//socllint:ignore placementmut left behind by a deleted analyzer
	_ = a
	//socllint:ignore floateq registered: suppresses the compare below
	return a == b
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := load.New(load.Config{})
	pkg, err := loader.LoadDir(dir, "p")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Run(pkg.Target(), analyzers, loader.FuncDirectives)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the unregistered-analyzer report", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if line := d.Position(loader.Fset()).Line; line != 4 || d.Analyzer != "socllint" || !strings.Contains(d.Message, `"placementmut"`) {
		t.Errorf("diagnostic = line %d [%s] %s, want line 4 [socllint] naming placementmut", line, d.Analyzer, d.Message)
	}
	if res.Suppressed["floateq"] != 1 {
		t.Errorf("suppressed = %v, want floateq=1", res.Suppressed)
	}
}

// The ratchet is exact on a full ./... run: a suppression count below the
// baseline is slack a later unreviewed ignore could use, so it fails like an
// excess does. A subset run only sees a lower bound of the counts, so there
// only an excess fails.
func TestRatchetIsExactOnFullRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), baselineName)
	if err := os.WriteFile(path, []byte(`{"suppressed": {"detrand": 3, "floateq": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		suppressed map[string]int
		fullRun    bool
		want       []string
	}{
		{"equal", map[string]int{"detrand": 3, "floateq": 2}, true, nil},
		{"below", map[string]int{"detrand": 2, "floateq": 2}, true, []string{"2 suppressed detrand diagnostics are below the baseline 3"}},
		{"analyzer gone", map[string]int{"detrand": 3}, true, []string{"0 suppressed floateq diagnostics are below the baseline 2"}},
		{"above", map[string]int{"detrand": 4, "floateq": 2}, true, []string{"4 suppressed detrand diagnostics exceed the baseline 3"}},
		{"subset below", map[string]int{"detrand": 1}, false, nil},
		{"subset above", map[string]int{"floateq": 3}, false, []string{"3 suppressed floateq diagnostics exceed the baseline 2"}},
	} {
		errs := checkBaseline(path, tc.suppressed, false, tc.fullRun)
		if len(errs) != len(tc.want) {
			t.Errorf("%s: ratchet errors = %q, want %d", tc.name, errs, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(errs[i], w) {
				t.Errorf("%s: ratchet error %q does not contain %q", tc.name, errs[i], w)
			}
		}
	}
}
