package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate onto the
// upstream framework wholesale if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //spglint:ignore
	// directives.
	Name string
	// Doc is the one-paragraph help text shown by `spglint -list`.
	Doc string
	// Packages lists the import paths the analyzer is enforced on; empty
	// means every package. The linttest harness bypasses this gate (fixture
	// packages have synthetic paths).
	Packages []string
	// Tests extends the analyzer to the _test.go files of its packages
	// (their test variants, see Package.ForTest).
	Tests bool
	// Run reports findings on one package through pass.Reportf.
	Run func(*Pass) error
}

// Enforced reports whether the analyzer runs on pkg: on the packages
// AppliesTo names and, with Tests, on their test variants.
func (a *Analyzer) Enforced(pkg *Package) bool {
	if pkg.ForTest != "" {
		return a.Tests && a.AppliesTo(pkg.ForTest)
	}
	return a.AppliesTo(pkg.Path)
}

// AppliesTo reports whether the analyzer is enforced on the package with
// the given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == path {
			return true
		}
	}
	return false
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *Package
	TypesInfo *types.Info
	diags     []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed is set when an //spglint:ignore directive covers the
	// finding; Reason carries the directive's written justification.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", d.Reason)
	}
	return s
}

// ignoreDirective is one parsed //spglint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers []string // "*" matches all
	reason    string
}

func (d *ignoreDirective) matches(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == "*" || a == analyzer {
			return true
		}
	}
	return false
}

const ignorePrefix = "//spglint:ignore"

// parseIgnores scans a package's comments for //spglint:ignore directives.
// Malformed directives (no analyzer list or no reason) are reported as
// findings of the pseudo-analyzer "spglint" — and are themselves
// unsuppressable, so a bare ignore can never silently disable a check.
func parseIgnores(fset *token.FileSet, files []*ast.File) ([]ignoreDirective, []Diagnostic) {
	var directives []ignoreDirective
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "spglint",
						Pos:      pos,
						Message:  "malformed //spglint:ignore: want `//spglint:ignore <analyzer>[,...] <reason>` — the reason is mandatory",
					})
					continue
				}
				directives = append(directives, ignoreDirective{
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return directives, malformed
}

// applySuppressions marks diagnostics covered by a directive on the same
// line or the line directly above.
func applySuppressions(diags []Diagnostic, directives []ignoreDirective) []Diagnostic {
	for i := range diags {
		d := &diags[i]
		if d.Analyzer == "spglint" {
			continue // malformed-directive findings are unsuppressable
		}
		for _, dir := range directives {
			if dir.file != d.Pos.Filename || !dir.matches(d.Analyzer) {
				continue
			}
			if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
				d.Suppressed = true
				d.Reason = dir.reason
				break
			}
		}
	}
	return diags
}

// Check runs the given analyzers over pkg, applies //spglint:ignore
// suppressions, and returns every diagnostic (suppressed ones included,
// flagged as such) sorted by position.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
		}
		diags = append(diags, pass.diags...)
	}
	directives, malformed := parseIgnores(pkg.Fset, pkg.Files)
	diags = applySuppressions(diags, directives)
	diags = append(diags, malformed...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full spglint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Detrange, Wirecodec, Memoalias, Lockguard, Ctxflow, Nofuse}
}
