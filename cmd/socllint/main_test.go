package main

import (
	"os"
	"path/filepath"
	"testing"
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
