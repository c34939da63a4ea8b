package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"spgcmp/internal/lint"
)

func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	pkg, err := lint.LoadDir("../..", filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// TestSuppression pins the directive semantics down: valid directives
// suppress and carry their reason, bare directives are findings and
// suppress nothing, analyzer lists are respected, and * matches all.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	diags, err := lint.Check(pkg, []*lint.Analyzer{lint.Detrange})
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, unsuppressed, malformed []lint.Diagnostic
	for _, d := range diags {
		switch {
		case d.Analyzer == "spglint":
			malformed = append(malformed, d)
		case d.Suppressed:
			suppressed = append(suppressed, d)
		default:
			unsuppressed = append(unsuppressed, d)
		}
	}

	if len(malformed) != 1 || !strings.Contains(malformed[0].Message, "malformed") {
		t.Fatalf("want exactly one malformed-directive finding, got %v", malformed)
	}
	// valid + wildcard suppress their findings; bare and wrongAnalyzer do not.
	if len(suppressed) != 2 {
		t.Fatalf("want 2 suppressed findings (valid, wildcard), got %v", suppressed)
	}
	for _, d := range suppressed {
		if d.Reason == "" {
			t.Errorf("suppressed finding lost its reason: %v", d)
		}
	}
	if len(unsuppressed) != 2 {
		t.Fatalf("want 2 unsuppressed findings (bare, wrongAnalyzer), got %v", unsuppressed)
	}
}

// TestAppliesTo pins the package gating: each analyzer is enforced exactly
// on its configured packages and the empty list means everywhere.
func TestAppliesTo(t *testing.T) {
	if !lint.Detrange.AppliesTo("spgcmp/internal/core") {
		t.Error("detrange must apply to internal/core")
	}
	if lint.Detrange.AppliesTo("spgcmp/internal/service") {
		t.Error("detrange is not enforced on internal/service")
	}
	all := &lint.Analyzer{Name: "x"}
	if !all.AppliesTo("anything") {
		t.Error("empty Packages means every package")
	}
	variant := &lint.Package{Path: "spgcmp/internal/core [spgcmp/internal/core.test]", ForTest: "spgcmp/internal/core"}
	if lint.Detrange.Enforced(variant) || all.Enforced(variant) {
		t.Error("an analyzer without Tests must skip test variants")
	}
	if !lint.Nofuse.Enforced(variant) {
		t.Error("nofuse must check internal/core's _test.go files")
	}
	if lint.Nofuse.Enforced(&lint.Package{Path: "spgcmp/internal/service_test [spgcmp/internal/service.test]", ForTest: "spgcmp/internal/service"}) {
		t.Error("nofuse is not enforced on internal/service's tests")
	}
}

// TestRepoIsLintClean runs the full suite over the real module: the tree
// must stay free of unsuppressed findings, and every suppression must carry
// a reason — the same bar the CI lint job enforces, kept close to `go test`.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := lint.All()
	if len(analyzers) != 6 {
		t.Fatalf("the suite must ship six analyzers, got %d", len(analyzers))
	}
	checked := 0
	for _, pkg := range pkgs {
		if len(pkg.Files) == 0 {
			t.Errorf("%s: loaded with no files to check", pkg.Path)
		}
		var active []*lint.Analyzer
		for _, a := range analyzers {
			if a.Enforced(pkg) {
				active = append(active, a)
			}
		}
		diags, err := lint.Check(pkg, active)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, d := range diags {
			if d.Suppressed {
				if d.Reason == "" {
					t.Errorf("suppression without reason: %v", d)
				}
				continue
			}
			t.Errorf("unsuppressed finding: %v", d)
		}
	}
	if checked == 0 {
		t.Fatal("no packages checked")
	}
}
