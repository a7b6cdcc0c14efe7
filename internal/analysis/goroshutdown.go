package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroShutdown flags `go` statements that launch goroutines with no visible
// shutdown path. Every long-lived goroutine in this codebase must be
// stoppable — the serving pumps, replica streams and resend loops all leaked
// at one point or another before their quit channels were wired — so a
// launched function must either
//
//   - block on a channel the owner controls (a select, a receive, or a
//     range over a channel: closing it ends the goroutine), or
//   - register with a sync.WaitGroup (a Done call, usually deferred, means
//     some Close is draining it).
//
// The check inspects the launched function literal, or — for `go f(...)`
// with f declared in the same package — f's body, one level deep. Launches
// that are provably short-lived (a bounded send, an http.Serve tied to a
// closable listener) are audited exceptions: annotate them with
// //lint:allow goroshutdown <reason>.
var GoroShutdown = &Analyzer{
	Name:  "goroshutdown",
	Run:   runGoroShutdown,
	Match: internalOnly,
}

func runGoroShutdown(pass *Pass) error {
	// Index same-package function bodies so `go p.loop()` can be checked
	// against loop's declaration.
	bodies := map[types.Object]*ast.BlockStmt{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					bodies[obj] = fd.Body
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
			case *ast.Ident:
				body = bodies[pass.TypesInfo.Uses[fun]]
			case *ast.SelectorExpr:
				body = bodies[pass.TypesInfo.Uses[fun.Sel]]
			}
			if body == nil {
				pass.Reportf(g.Pos(),
					"goroutine launches a function declared outside this package; make the shutdown path visible here (wrap in a literal that selects on quit/ctx or registers with a WaitGroup) or annotate why it terminates")
				return true
			}
			if !shutdownAware(pass, body) {
				pass.Reportf(g.Pos(),
					"goroutine has no shutdown path: select on a done/ctx/closed channel, range over a channel, or register with a WaitGroup drained on Close")
			}
			return true
		})
	}
	return nil
}

// shutdownAware reports whether body contains a channel wait the owner can
// end or a WaitGroup registration. Nested function literals are NOT
// descended into for channel ops (a callback's select is not this
// goroutine's), but deferred literals are (defer func() { wg.Done() }()).
func shutdownAware(pass *Pass, body *ast.BlockStmt) bool {
	aware := false
	ast.Inspect(body, func(n ast.Node) bool {
		if aware {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// Look through `defer func() { ... }()` for a Done call.
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && isWGDone(pass, call) {
						aware = true
					}
					return !aware
				})
			}
		case *ast.SelectStmt:
			aware = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				aware = true
			}
		case *ast.RangeStmt:
			if isChanType(pass, x.X) {
				aware = true
			}
		case *ast.CallExpr:
			if isWGDone(pass, x) {
				aware = true
			}
		}
		return !aware
	})
	return aware
}

func isWGDone(pass *Pass, c *ast.CallExpr) bool {
	full := calleeFullName(pass.TypesInfo, c)
	return full == "(*sync.WaitGroup).Done" || full == "(*sync.WaitGroup).Wait"
}
