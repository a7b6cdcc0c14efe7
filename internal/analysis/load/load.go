// Package load turns Go packages into type-checked syntax for the analysis
// driver without golang.org/x/tools: package metadata comes from
// `go list -export -deps -json`, dependencies are imported from the compiler
// export data that command produces in the build cache, and only the target
// packages themselves are parsed and type-checked from source. Everything
// works offline — the container has no module proxy access.
//
// Two entry points:
//
//   - Load:        module packages by pattern ("./...") for the root tests.
//   - LoadFixture: analyzer test fixtures under testdata/src, where import
//     paths resolve against the fixture tree first (a fixture package may
//     import a sibling fixture package) and the standard library second.
package load

import (
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

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // compiled files, type-checked
	// TestFiles are the package's _test.go files (in-package and external),
	// parsed with comments but not type-checked.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	DepOnly      bool
}

// goList runs `go list -export -deps -json args...` in dir and decodes the
// JSON stream. The -export flag makes the go tool compile every listed
// package and report the export-data file each produced, which is what lets
// the type-checker import dependencies without a network or GOPATH.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(args, " "), err)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	var pkgs []listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies types.ImporterFrom by reading compiler export
// data recorded by `go list -export`. The gc importer caches internally, so
// repeated imports of one dependency are cheap.
type exportImporter struct {
	exports map[string]string
	gc      types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	}
	ei.gc = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.ImportFrom(path, "", 0)
}

func (ei *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.gc.ImportFrom(path, dir, mode)
}

// Load lists and type-checks the module packages matching patterns, rooted
// at dir, returning them in dependency order (imports before importers).
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var out []*Package
	// go list -deps emits dependencies before dependents; keeping that order
	// is what lets cross-package analyzers see a registry package before the
	// packages that dispatch on it.
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		pkg, err := check(fset, imp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, imp types.ImporterFrom, p listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	var testFiles []*ast.File
	for _, name := range append(append([]string{}, p.TestGoFiles...), p.XTestGoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		testFiles = append(testFiles, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck %s: %w", p.ImportPath, err)
	}
	return &Package{
		Path:      p.ImportPath,
		Name:      p.Name,
		Dir:       p.Dir,
		Fset:      fset,
		Files:     files,
		TestFiles: testFiles,
		Types:     tpkg,
		Info:      info,
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// ---------------------------------------------------------------------------
// Fixture loading (the analyzer tests and the root caller check)

// fixtureLoader type-checks packages under a testdata/src tree: an import
// path that names a subdirectory of the tree resolves there (from source,
// recursively); anything else must be standard library and resolves through
// export data.
type fixtureLoader struct {
	root   string // the testdata/src directory
	fset   *token.FileSet
	std    *exportImporter
	loaded map[string]*Package
	stack  []string // cycle detection
}

func (fl *fixtureLoader) Import(path string) (*types.Package, error) {
	return fl.ImportFrom(path, "", 0)
}

func (fl *fixtureLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if fi, err := os.Stat(filepath.Join(fl.root, filepath.FromSlash(path))); err == nil && fi.IsDir() {
		pkg, err := fl.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return fl.std.ImportFrom(path, dir, mode)
}

func (fl *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := fl.loaded[path]; ok {
		return pkg, nil
	}
	for _, s := range fl.stack {
		if s == path {
			return nil, fmt.Errorf("load: fixture import cycle through %q", path)
		}
	}
	fl.stack = append(fl.stack, path)
	defer func() { fl.stack = fl.stack[:len(fl.stack)-1] }()

	dir := filepath.Join(fl.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: fixture %s: %w", path, err)
	}
	var files, testFiles []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fl.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: fixture %s: %w", path, err)
		}
		if strings.HasSuffix(e.Name(), "_test.go") {
			testFiles = append(testFiles, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: fixture %s has no Go files", path)
	}
	info := newInfo()
	conf := types.Config{Importer: fl}
	tpkg, err := conf.Check(path, fl.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck fixture %s: %w", path, err)
	}
	pkg := &Package{
		Path:      path,
		Name:      files[0].Name.Name,
		Dir:       dir,
		Fset:      fl.fset,
		Files:     files,
		TestFiles: testFiles,
		Types:     tpkg,
		Info:      info,
	}
	fl.loaded[path] = pkg
	return pkg, nil
}

// LoadFixture loads the named fixture packages (paths relative to root,
// which is conventionally <pkg>/testdata/src) plus their fixture
// dependencies, in dependency order.
func LoadFixture(root string, paths ...string) ([]*Package, error) {
	stdRoots, err := fixtureStdImports(root)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	if len(stdRoots) > 0 {
		listed, err := goList(root, stdRoots...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset := token.NewFileSet()
	fl := &fixtureLoader{
		root:   root,
		fset:   fset,
		std:    newExportImporter(fset, exports),
		loaded: map[string]*Package{},
	}
	seen := map[string]bool{}
	var out []*Package
	var add func(path string) error
	add = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		pkg, err := fl.load(path)
		if err != nil {
			return err
		}
		// Dependencies first, matching Load's ordering contract.
		var deps []string
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				if fi, err := os.Stat(filepath.Join(root, filepath.FromSlash(p))); err == nil && fi.IsDir() {
					deps = append(deps, p)
				}
			}
		}
		sort.Strings(deps)
		for _, d := range deps {
			if err := add(d); err != nil {
				return err
			}
		}
		out = append(out, pkg)
		return nil
	}
	for _, p := range paths {
		if err := add(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fixtureStdImports scans every fixture file under root for import paths
// that do not resolve inside the tree — the standard-library roots the
// export importer must be primed with.
func fixtureStdImports(root string) ([]string, error) {
	need := map[string]bool{}
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("load: scan %s: %w", path, err)
		}
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if p == "unsafe" {
				continue
			}
			if fi, err := os.Stat(filepath.Join(root, filepath.FromSlash(p))); err == nil && fi.IsDir() {
				continue
			}
			need[p] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for p := range need {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}
