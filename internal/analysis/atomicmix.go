package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicMix flags struct fields that are accessed through sync/atomic
// functions somewhere and through plain reads or writes somewhere else. A
// field is either always atomic or never: one plain `s.n++` or `x := s.n`
// next to an atomic.AddUint64(&s.n, 1) is a data race the race detector
// only catches when both sites fire concurrently in a test, while this
// check catches it on every push. It guards the metrics/stats counters
// surfaced through NodeMetrics, which are exactly the fields read from
// scrape goroutines while workers bump them.
//
// The check is cross-package (Finish): a counter bumped atomically in its
// own package and read plainly by a metrics collector elsewhere is the
// motivating bug shape. Typed atomics (atomic.Uint64 and friends) cannot
// mix by construction and are the preferred fix.
var AtomicMix = &Analyzer{
	Name:     "atomicmix",
	Run:      runAtomicMix,
	Finish:   finishAtomicMix,
	NewState: func() { atomicFields = map[string]*fieldAccess{} },
}

// fieldAccess accumulates one struct field's access sites across packages.
type fieldAccess struct {
	atomic token.Position   // first atomic access site
	plain  []token.Position // every plain access site
}

var atomicFields = map[string]*fieldAccess{}

// atomicFns are the sync/atomic functions whose first argument is &field.
var atomicFns = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true,
	"AddUintptr": true, "LoadInt32": true, "LoadInt64": true, "LoadUint32": true,
	"LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true,
	"StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true,
	"SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func runAtomicMix(pass *Pass) error {
	// First sweep: record the &field arguments of sync/atomic calls, and
	// remember the argument expressions so the second sweep can skip them.
	atomicArgs := map[ast.Expr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			full := calleeFullName(pass.TypesInfo, call)
			name, found := strings.CutPrefix(full, "sync/atomic.")
			if !found || !atomicFns[name] || len(call.Args) == 0 {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			sel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if key, ok := fieldKey(pass.TypesInfo, sel); ok {
				fa := atomicFields[key]
				if fa == nil {
					fa = &fieldAccess{atomic: pass.Fset.Position(call.Pos())}
					atomicFields[key] = fa
				} else if !fa.atomic.IsValid() {
					fa.atomic = pass.Fset.Position(call.Pos())
				}
				atomicArgs[sel] = true
			}
			return true
		})
	}
	// Second sweep: every other selector resolving to a struct field is a
	// plain access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgs[sel] {
				return true
			}
			if key, ok := fieldKey(pass.TypesInfo, sel); ok {
				fa := atomicFields[key]
				if fa == nil {
					fa = &fieldAccess{}
					atomicFields[key] = fa
				}
				fa.plain = append(fa.plain, pass.Fset.Position(sel.Sel.Pos()))
			}
			return true
		})
	}
	return nil
}

// fieldKey identifies a struct field globally: "pkgpath.Struct.field".
// Fields of unnamed structs and non-field selections return ok=false.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return "", false
	}
	owner := typePath(s.Recv())
	if owner == "" {
		return "", false
	}
	return owner + "." + v.Name(), true
}

func finishAtomicMix(report func(Diagnostic)) error {
	for key, fa := range atomicFields {
		if !fa.atomic.IsValid() || len(fa.plain) == 0 {
			continue
		}
		for _, pos := range fa.plain {
			report(Diagnostic{
				Analyzer: "atomicmix",
				Pos:      pos,
				Message: "plain access to " + key + ", which is accessed via sync/atomic at " +
					fa.atomic.String() + "; use atomic ops everywhere or a typed atomic",
			})
		}
	}
	return nil
}
