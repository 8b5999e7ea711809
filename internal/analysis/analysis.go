// Package analysis is a self-contained, stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis driver surface, sized for this repository's
// project-specific linters (cmd/socllint). The container building this repo
// has no module proxy access, so the real x/tools framework cannot be pulled
// in; the Analyzer/Pass/Diagnostic types below mirror its shape closely
// enough that the analyzers in the subpackages would port to x/tools by
// changing one import line.
//
// Beyond the x/tools surface, the runner understands suppression directives:
//
//	//socllint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the flagged line or on the line immediately above it. The
// reason is mandatory — a bare directive is itself reported — so every
// suppressed diagnostic documents why the pattern is intentional. A directive
// naming an analyzer the run does not register is reported too: it is what a
// deleted or renamed analyzer leaves behind, and it suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// FuncDirectives maps function/method objects (program-wide, across every
	// package the loader has seen) to the socllint directive lines from their
	// doc comments, e.g. "sentinel ErrNoInstance". Analyzers use it for
	// annotation-driven contracts on callees declared in other packages.
	FuncDirectives map[types.Object][]string

	// Report delivers one diagnostic. The runner installs it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the static type of e, or nil when untyped.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.TypesInfo.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.TypesInfo.ObjectOf(id) }

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the runner
}

// Position resolves the diagnostic's file position under fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position { return fset.Position(d.Pos) }

// --- suppression directives ---

// IgnoreDirectivePrefix is the comment prefix of a suppression.
const IgnoreDirectivePrefix = "//socllint:ignore"

var directiveRe = regexp.MustCompile(`^//socllint:ignore\s+([A-Za-z0-9_,]+)(?:\s+(.*))?$`)

// ignoreDirective is one parsed //socllint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool
	reason    string
	pos       token.Pos
}

// ignoreIndex maps file name → line → directive for one package.
type ignoreIndex map[string]map[int]*ignoreDirective

// buildIgnoreIndex scans every comment in the package for ignore directives.
// Directives with no reason, or naming an analyzer outside known, are reported
// as diagnostics themselves (under the pseudo-analyzer name "socllint").
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File, known map[string]bool, report func(Diagnostic)) ignoreIndex {
	idx := ignoreIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimRight(c.Text, " \t")
				if !strings.HasPrefix(text, IgnoreDirectivePrefix) {
					continue
				}
				m := directiveRe.FindStringSubmatch(text)
				pos := fset.Position(c.Pos())
				if m == nil || strings.TrimSpace(m[2]) == "" {
					report(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "socllint",
						Message:  "malformed ignore directive: want //socllint:ignore <analyzer>[,<analyzer>] <reason>",
					})
					continue
				}
				d := &ignoreDirective{analyzers: map[string]bool{}, reason: strings.TrimSpace(m[2]), pos: c.Pos()}
				for _, name := range strings.Split(m[1], ",") {
					if !known[name] {
						report(Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "socllint",
							Message:  fmt.Sprintf("ignore directive names unregistered analyzer %q", name),
						})
					}
					d.analyzers[name] = true
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = map[int]*ignoreDirective{}
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = d
			}
		}
	}
	return idx
}

// suppressed reports whether a diagnostic from analyzer name at position p is
// covered by a directive on the same line or the line directly above.
func (idx ignoreIndex) suppressed(name string, p token.Position) bool {
	byLine := idx[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if d := byLine[line]; d != nil && d.analyzers[name] {
			return true
		}
	}
	return false
}

// --- runner ---

// Target is the minimal package view the runner needs; internal/analysis/load
// produces values satisfying it.
type Target struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Result is one package's outcome: the diagnostics that survived
// suppression, plus the per-analyzer count of diagnostics a reasoned
// //socllint:ignore directive swallowed (the ratchet input).
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  map[string]int
}

// Run executes every analyzer over one package, applying suppression
// directives, and returns the surviving diagnostics sorted by position along
// with the suppressed-per-analyzer counts. funcDirectives is the loader's
// program-wide directive table (Pass.FuncDirectives) and may be nil.
func Run(t *Target, analyzers []*Analyzer, funcDirectives map[types.Object][]string) (*Result, error) {
	res := &Result{Suppressed: map[string]int{}}
	out := &res.Diagnostics
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ignore := buildIgnoreIndex(t.Fset, t.Files, known, func(d Diagnostic) { *out = append(*out, d) })
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer:       a,
			Fset:           t.Fset,
			Files:          t.Files,
			Pkg:            t.Pkg,
			TypesInfo:      t.TypesInfo,
			FuncDirectives: funcDirectives,
			Report:         func(d Diagnostic) { raw = append(raw, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return res, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range raw {
			d.Analyzer = a.Name
			if ignore.suppressed(a.Name, t.Fset.Position(d.Pos)) {
				res.Suppressed[a.Name]++
				continue
			}
			*out = append(*out, d)
		}
	}
	sort.Slice(*out, func(i, j int) bool {
		pi, pj := t.Fset.Position((*out)[i].Pos), t.Fset.Position((*out)[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return (*out)[i].Analyzer < (*out)[j].Analyzer
	})
	return res, nil
}
