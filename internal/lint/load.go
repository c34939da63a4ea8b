package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package: what a Pass sees.
type Package struct {
	Path string
	// ForTest is, for a test variant, the import path of the package whose
	// _test.go files it holds (Path is then the bracketed test-variant
	// path); it is empty for a package's own files.
	ForTest string
	Fset    *token.FileSet
	// Files are the files a Pass checks: every file of a package, or only
	// the _test.go files of a test variant, whose other files are the
	// package's own and were type-checked with them.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath  string
	Name        string
	Dir         string
	Export      string
	GoFiles     []string
	TestGoFiles []string
	ForTest     string
	ImportMap   map[string]string
	DepOnly     bool
	Standard    bool
	Error       *struct{ Err string }
}

// goList runs `go list -export -deps -json args...` in dir and returns the
// decoded package stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a go/importer that resolves import paths through
// the export-data files recorded by `go list -export`, after renaming them
// through importMap (a test variant's map from an import path to the
// variant of that package compiled for the test; nil for none). One
// importer (and one FileSet) must be shared across every type-check that
// should agree on package identity.
func exportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p, ok := importMap[path]; ok {
			path = p
		}
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Load type-checks the packages matching patterns (e.g. "./...") in the
// module rooted at moduleDir, and their test variants, and returns them
// sorted by import path. A package with in-package _test.go files yields a
// variant whose Files are those files; one with an external test package
// yields that package as a variant too (see Package.ForTest).
// Dependencies are imported from compiler export data, so targets can be
// checked independently of one another and nothing is fetched from the
// network.
func Load(moduleDir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(moduleDir, append([]string{"-test"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Skip dependencies and the generated test mains.
		if !p.DepOnly && len(p.GoFiles) > 0 && !(p.ForTest == "" && p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test")) {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	shared := exportImporter(fset, exports, nil)
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		imp := shared
		if t.ForTest != "" {
			// A variant resolves its imports to the packages compiled for
			// its test, so it needs an importer of its own.
			imp = exportImporter(fset, exports, t.ImportMap)
		}
		pkg, err := typeCheck(fset, imp, t.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkg.ForTest = t.ForTest
		if t.ForTest != "" && len(t.TestGoFiles) > 0 {
			// The in-package variant: its other files are the package's own.
			pkg.Files = testFiles(fset, pkg.Files)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// testFiles returns the _test.go files of files.
func testFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	var out []*ast.File
	for _, f := range files {
		if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// LoadDir parses and type-checks the single package in dir (used by the
// linttest fixture harness; testdata directories are invisible to go list).
// Imports are resolved through export data listed from moduleDir, so
// fixtures may import anything the module's toolchain can build — in
// practice, the standard library.
func LoadDir(moduleDir, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	importSet := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				importSet[path] = true
			}
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	exports := make(map[string]string)
	if len(imports) > 0 {
		listed, err := goList(moduleDir, imports...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return typeCheckFiles(fset, exportImporter(fset, exports, nil), filepath.Base(dir), files)
}

func typeCheck(fset *token.FileSet, imp types.Importer, path string, filenames []string) (*Package, error) {
	files := make([]*ast.File, len(filenames))
	for i, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return typeCheckFiles(fset, imp, path, files)
}

func typeCheckFiles(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
