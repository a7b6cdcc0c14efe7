// Package analysis is the project's static-analysis framework: a minimal,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) driven by cmd/p2pdbvet. It exists
// because the invariants this repo keeps breaking in review — channel sends
// under a held mutex, wire frame kinds forgotten in one of several dispatch
// switches, goroutines with no shutdown path, counters read plainly but
// written atomically, bare polling sleeps — are exactly the classes a
// machine can check on every push, and the container builds offline (no
// x/tools), so the framework layers on go/ast + go/types + `go list -export`
// alone.
//
// Suppression: a diagnostic is silenced by a comment
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — an allow without one is itself reported — so every audited
// exception carries its justification in the source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/load"
)

// Analyzer is one invariant checker. Run is called once per loaded package,
// in dependency order (imports before importers); Finish, when set, runs
// after the last package and reports cross-package findings (the exhaustive
// wire-dispatch check needs the registry package and every dispatcher).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Match, when set, limits the analyzer to packages whose import path it
	// accepts (goroshutdown and baresleep guard internal/* only — examples
	// and one-shot commands may sleep and leak at exit by design).
	Match func(pkgPath string) bool
	// Finish reports diagnostics that need the whole program: it receives a
	// report function because no single Pass is in scope any more. State
	// accumulated across Run calls must be reset by NewState.
	Finish func(report func(Diagnostic)) error
	// NewState, when set, is invoked by the driver before a run so an
	// analyzer with cross-package state can be used for several independent
	// runs (the package's fixture tests run fixtures back to back).
	NewState func()
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's compiled (non-test) files, parsed with
	// comments and fully type-checked.
	Files []*ast.File
	// TestFiles are the package's _test.go files, parsed but NOT
	// type-checked (their extra dependencies are not loaded). Analyzers that
	// inspect test harnesses — the fuzz-seed exhaustiveness check — walk
	// them syntactically.
	TestFiles []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Driver runs a set of analyzers over loaded packages and filters the
// findings through the //lint:allow suppressions.
type Driver struct {
	Analyzers []*Analyzer
}

// Run analyzes pkgs (which must be in dependency order, as load.Load
// returns them) and returns the surviving diagnostics sorted by position.
func (d *Driver) Run(pkgs []*load.Package) ([]Diagnostic, error) {
	var raw []Diagnostic
	report := func(diag Diagnostic) { raw = append(raw, diag) }
	for _, a := range d.Analyzers {
		if a.NewState != nil {
			a.NewState()
		}
		for _, pkg := range pkgs {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				TestFiles: pkg.TestFiles,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.report = func(diag Diagnostic) { raw = append(raw, diag) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		if a.Finish != nil {
			if err := a.Finish(report); err != nil {
				return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
			}
		}
	}
	kept, err := applyAllows(raw)
	if err != nil {
		return nil, err
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return kept, nil
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers used by several analyzers.

// exprString renders a (small) expression for use as a map key or in a
// message: `p.mu`, `b.inner`. It is stable for the receiver chains the
// analyzers care about and falls back to a positional key otherwise.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	default:
		return fmt.Sprintf("expr@%d", e.Pos())
	}
}

// calleeFullName resolves a call's static callee to its types.Func full
// name — "(*sync.Mutex).Lock", "time.Sleep", "(net.Conn).Write" — or "".
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Alias:
			t = types.Unalias(x)
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

// typePath renders a named type as "pkgpath.Name" ("" for unnamed).
func typePath(t types.Type) string {
	n := namedOf(t)
	if n == nil || n.Obj() == nil {
		return ""
	}
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
