// Package load type-checks packages for the socllint analyzers without any
// dependency outside the standard library. Stdlib imports are resolved by the
// compiler's "source" importer (GOROOT source, fully offline); imports inside
// this module are resolved straight to their directories under the module
// root; test fixtures resolve GOPATH-style under extra root directories
// (testdata/src). One Loader shares a FileSet and caches across packages, so
// driving the whole repository is a single-process, single-pass affair.
// Files are selected under the default build context: a file behind a build
// tag (the soclinvariants-armed checks) is not loaded, so it is not linted.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Package is one type-checked package with its syntax trees.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// Target adapts the package to the analysis runner.
func (p *Package) Target() *analysis.Target {
	return &analysis.Target{Fset: p.Fset, Files: p.Syntax, Pkg: p.Types, TypesInfo: p.TypesInfo}
}

// Config configures a Loader.
type Config struct {
	// ModulePath / ModuleDir root the in-module import space, e.g. "repro" at
	// the repository root. Empty disables module resolution.
	ModulePath string
	ModuleDir  string
	// FixtureRoots are GOPATH-style src roots (testdata/src): import path P
	// resolves to <root>/P when that directory holds Go files. Fixture roots
	// shadow module and stdlib paths.
	FixtureRoots []string
	// IncludeTests adds the package's own _test.go files (not external
	// package_test files) to the load.
	IncludeTests bool
}

// Loader loads and caches packages.
type Loader struct {
	cfg    Config
	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*Package       // loaded module/fixture packages
	stdlib map[string]*types.Package // loaded stdlib packages

	// FuncDirectives accumulates the //socllint:<payload> doc-comment
	// directives (text after "//socllint:", e.g. "sentinel ErrNoInstance")
	// of every loaded package's functions, for analysis passes that need
	// cross-package callee annotations (analysis.Run's funcDirectives).
	FuncDirectives map[types.Object][]string
}

// New returns a Loader over cfg.
func New(cfg Config) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		cfg:            cfg,
		fset:           fset,
		std:            importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:           map[string]*Package{},
		stdlib:         map[string]*types.Package{},
		FuncDirectives: map[types.Object][]string{},
	}
}

// Fset returns the shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// resolveDir maps an import path to a directory, or "" when the path is not a
// fixture or module package (i.e. stdlib).
func (l *Loader) resolveDir(path string) string {
	for _, root := range l.cfg.FixtureRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
	}
	if l.cfg.ModulePath != "" {
		if path == l.cfg.ModulePath {
			return l.cfg.ModuleDir
		}
		if rest, ok := strings.CutPrefix(path, l.cfg.ModulePath+"/"); ok {
			return filepath.Join(l.cfg.ModuleDir, filepath.FromSlash(rest))
		}
	}
	return ""
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// Load type-checks the package at importPath (fixture, module, or stdlib
// name) and caches the result.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	dir := l.resolveDir(importPath)
	if dir == "" {
		return nil, fmt.Errorf("load: %s is not a fixture or module package", importPath)
	}
	return l.LoadDir(dir, importPath)
}

// LoadDir type-checks the package in dir under the given import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", importPath, err)
	}
	names := append([]string{}, bp.GoFiles...)
	if l.cfg.IncludeTests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", importPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l), FakeImportC: true}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", importPath, err)
	}
	p := &Package{
		ImportPath: importPath,
		Fset:       l.fset,
		Syntax:     files,
		Types:      tpkg,
		TypesInfo:  info,
	}
	l.collectDirectives(p)
	l.pkgs[importPath] = p
	return p, nil
}

// collectDirectives extracts //socllint:<payload> doc-comment directives from
// the package's function declarations into l.FuncDirectives.
func (l *Loader) collectDirectives(p *Package) {
	for _, f := range p.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			obj := p.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if payload, ok := strings.CutPrefix(c.Text, "//socllint:"); ok &&
					!strings.HasPrefix(c.Text, analysis.IgnoreDirectivePrefix) {
					l.FuncDirectives[obj] = append(l.FuncDirectives[obj], strings.TrimSpace(payload))
				}
			}
		}
	}
}

// loaderImporter lets type-checking recurse through the Loader: fixture and
// module imports load from source directories; everything else is delegated
// to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.resolveDir(path); dir != "" {
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, ok := l.stdlib[path]; ok {
		return p, nil
	}
	p, err := l.std.ImportFrom(path, srcDir, 0)
	if err != nil {
		return nil, err
	}
	l.stdlib[path] = p
	return p, nil
}
