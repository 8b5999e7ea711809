// Command socllint is the project's multichecker: it runs the three
// repo-specific analyzers from internal/analysis over the requested packages
// and, unless -vet=false, chains the standard `go vet` passes behind them.
//
// Usage:
//
//	go run ./cmd/socllint ./...
//	go run ./cmd/socllint -json ./internal/ilp
//	go run ./cmd/socllint -update-baseline ./...
//
// Diagnostics print as file:line:col: [analyzer] message, or as a JSON
// object with -json. Intentional violations are suppressed with a reasoned
// directive on the offending line or the line above:
//
//	//socllint:ignore <analyzer>[,<analyzer>] <reason>
//
// Suppressed-diagnostic counts are ratcheted against the committed
// socllint.baseline.json: a run whose per-analyzer suppression count
// exceeds the baseline fails, and so does a full ./... run whose count is
// below it (slack a later unreviewed ignore could use). -update-baseline
// rewrites the file (to tighten, or alongside a reviewed new ignore). The
// process exits 1 when any diagnostic survives suppression, the ratchet is
// violated, a pattern matches no packages, or go vet fails; 0 otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/floateq"
	"repro/internal/analysis/load"
	"repro/internal/analysis/sentinelerr"
)

var analyzers = []*analysis.Analyzer{
	detrand.Analyzer,
	floateq.Analyzer,
	sentinelerr.Analyzer,
}

const baselineName = "socllint.baseline.json"

// jsonDiag is one diagnostic in -json output.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// baselineFile is the committed suppression ratchet.
type baselineFile struct {
	Comment    string         `json:"comment,omitempty"`
	Suppressed map[string]int `json:"suppressed"`
}

func main() {
	vet := flag.Bool("vet", true, "also run `go vet` over the same patterns")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics and suppression counts as JSON")
	baselinePath := flag.String("baseline", "", "suppression baseline file (default <module>/"+baselineName+")")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the suppression baseline from this run")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modDir, modPath, err := findModule()
	if err != nil {
		fatal(err)
	}
	dirs, err := expand(modDir, patterns)
	if err != nil {
		// A pattern matching nothing is a misconfigured invocation (a moved
		// package silently unlinted), not a crash: exit 1, not 2.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *baselinePath == "" {
		*baselinePath = filepath.Join(modDir, baselineName)
	}

	// Load every requested package first: LoadDir collects directives as a
	// side effect, so by the time analyzers run, the directive table covers
	// every callee they can reach.
	loader := load.New(load.Config{ModulePath: modPath, ModuleDir: modDir})
	pkgs := make([]*load.Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			fatal(err)
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.LoadDir(dir, importPath)
		if err != nil {
			fatal(fmt.Errorf("socllint: %w", err))
		}
		pkgs = append(pkgs, pkg)
	}

	exit := 0
	var diags []jsonDiag
	suppressed := map[string]int{}
	for _, pkg := range pkgs {
		res, err := analysis.Run(pkg.Target(), analyzers, loader.FuncDirectives)
		if err != nil {
			fatal(fmt.Errorf("socllint: %s: %w", pkg.ImportPath, err))
		}
		for name, n := range res.Suppressed {
			suppressed[name] += n
		}
		for _, d := range res.Diagnostics {
			pos := d.Position(loader.Fset())
			file := pos.Filename
			if r, err := filepath.Rel(modDir, file); err == nil {
				file = r
			}
			diags = append(diags, jsonDiag{
				File: file, Line: pos.Line, Col: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
			exit = 1
		}
	}

	fullRun := len(patterns) == 1 && patterns[0] == "./..."
	ratchetErrs := checkBaseline(*baselinePath, suppressed, *updateBaseline, fullRun)
	if len(ratchetErrs) > 0 {
		exit = 1
	}

	if *jsonOut {
		out := struct {
			Diagnostics []jsonDiag     `json:"diagnostics"`
			Suppressed  map[string]int `json:"suppressed"`
			Ratchet     []string       `json:"ratchet,omitempty"`
		}{Diagnostics: diags, Suppressed: suppressed, Ratchet: ratchetErrs}
		if out.Diagnostics == nil {
			out.Diagnostics = []jsonDiag{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
		for _, msg := range ratchetErrs {
			fmt.Fprintln(os.Stderr, "socllint: "+msg)
		}
		fmt.Printf("socllint: %d package(s), %d diagnostic(s), suppressed: %s\n",
			len(pkgs), len(diags), formatCounts(suppressed))
	}

	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) {
				fatal(fmt.Errorf("socllint: running go vet: %w", err))
			}
			exit = 1
		}
	}
	os.Exit(exit)
}

// formatCounts renders per-analyzer suppression counts, sorted by name.
func formatCounts(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, m[name]))
	}
	return strings.Join(parts, " ")
}

// checkBaseline enforces (or rewrites) the suppression ratchet and returns
// violation messages. The exceed check always runs (a subset's counts are a
// lower bound on the full run's, so it can only under-report, never
// false-fail); the below-baseline check needs the full ./... run's counts.
func checkBaseline(path string, suppressed map[string]int, update, fullRun bool) []string {
	if update {
		bl := baselineFile{
			Comment:    "suppression ratchet: per-analyzer //socllint:ignore counts may only go down; rewrite with -update-baseline",
			Suppressed: suppressed,
		}
		data, err := json.MarshalIndent(bl, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatal(fmt.Errorf("socllint: writing baseline: %w", err))
		}
		fmt.Fprintf(os.Stderr, "socllint: baseline updated: %s\n", path)
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "socllint: no baseline at %s; run -update-baseline to start the ratchet\n", path)
			return nil
		}
		fatal(fmt.Errorf("socllint: reading baseline: %w", err))
	}
	var bl baselineFile
	if err := json.Unmarshal(data, &bl); err != nil {
		fatal(fmt.Errorf("socllint: parsing %s: %w", path, err))
	}
	var errs []string
	for name, n := range suppressed {
		if n > bl.Suppressed[name] {
			errs = append(errs, fmt.Sprintf(
				"ratchet: %d suppressed %s diagnostics exceed the baseline %d; remove an ignore, or update the baseline alongside the reviewed new one",
				n, name, bl.Suppressed[name]))
		}
	}
	for name, base := range bl.Suppressed {
		if cur := suppressed[name]; fullRun && cur < base {
			errs = append(errs, fmt.Sprintf(
				"ratchet: %d suppressed %s diagnostics are below the baseline %d; tighten it with -update-baseline",
				cur, name, base))
		}
	}
	sort.Strings(errs)
	return errs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// findModule walks up from the working directory to go.mod and returns the
// module directory and path.
func findModule() (dir, path string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		modFile := filepath.Join(dir, "go.mod")
		if f, err := os.Open(modFile); err == nil {
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					f.Close()
					return dir, strings.TrimSpace(rest), nil
				}
			}
			f.Close()
			return "", "", fmt.Errorf("socllint: no module line in %s", modFile)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("socllint: no go.mod found above the working directory")
		}
		dir = parent
	}
}

// expand resolves package patterns to package directories. A trailing /...
// walks recursively; testdata, vendor, dot-directories and nested modules (a
// subdirectory with its own go.mod, which the go tool's ./... excludes too)
// are skipped, as are directories without non-test Go files. A pattern
// matching no package directory is an error: it means a moved or renamed tree
// is silently escaping the lint.
func expand(modDir string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) bool {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return false
		}
		if seen[abs] {
			return true
		}
		if !hasBuildableGo(abs) {
			return false
		}
		seen[abs] = true
		out = append(out, abs)
		return true
	}
	for _, pat := range patterns {
		matched := false
		recursive := false
		dir := pat
		if strings.HasSuffix(dir, "/...") {
			recursive = true
			dir = strings.TrimSuffix(dir, "/...")
		}
		if dir == "" || dir == "." {
			dir = "."
		}
		if !filepath.IsAbs(dir) {
			dir = filepath.Clean(dir)
		}
		if !recursive {
			matched = add(dir)
		} else {
			err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); p != dir && err == nil {
					return filepath.SkipDir
				}
				if add(p) {
					matched = true
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("socllint: expanding %s: %w", pat, err)
			}
		}
		if !matched {
			return nil, fmt.Errorf("socllint: pattern %s matches no package directories", pat)
		}
	}
	return out, nil
}

// hasBuildableGo reports whether dir directly contains a non-test Go file.
func hasBuildableGo(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		return true
	}
	return false
}
