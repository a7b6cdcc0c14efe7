package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WireExhaustive keeps the wire protocol's vocabulary and its consumers in
// lock-step. The protocol registry is the codec's kind table: the constants
// of the package-level type `kind` in the wire package, one per frame kind.
// Every kind must have
//
//  1. an encode arm — a case of the codec's type switch that writes the
//     constant — which is also what ties the kind to its message type,
//  2. a decode arm — a case for the constant in a switch over the kind byte
//     (the compiler checks neither: a kind nobody writes and a kind nobody
//     reads both build; that the two arms agree is the round-trip test's job),
//  3. at least one dispatch type-switch somewhere in the loaded packages
//     handling its message type (a frame nobody dispatches is dead
//     vocabulary or, worse, a silently dropped message),
//  4. a seed in FuzzDecodeEnvelope, so the decode boundary is fuzzed over
//     the full vocabulary, and
//  5. when the frame is the batch container (AnswerBatch): every one of its
//     fields must be referenced in every split path — each `case
//     wire.AnswerBatch` dispatch arm, and each function that builds the
//     batch — because "handled the new field in one of the two split paths
//     but not the other" is exactly the bug PR 9 shipped with WatchDeltas.
//
// The analyzer is generic over "a package with a kind table", which is what
// makes it testable on fixture packages; in this repo that package is
// repro/internal/wire.
var WireExhaustive = &Analyzer{
	Name:     "wireexhaustive",
	Run:      runWireExhaustive,
	Finish:   finishWireExhaustive,
	NewState: func() { wireState = &wireProgram{registries: map[string]*wireRegistry{}} },
}

// batchTypeName is the batch container whose fields must be split
// exhaustively on every path.
const batchTypeName = "AnswerBatch"

type wireRegistry struct {
	pkgPath string
	// kinds maps a message type's name -> its constant in the kind table.
	kinds map[string]token.Position
	// codec is the registry's own type switch (the encode arms): it handles
	// every kind by construction and is no dispatch site.
	codec *ast.TypeSwitchStmt
	// handled marks kinds seen in a dispatch case clause anywhere.
	handled map[string]bool
	// seeds marks kinds constructed inside FuzzDecodeEnvelope.
	seeds    map[string]bool
	hasFuzz  bool
	tablePos token.Position
	// sawDispatch records that at least one type switch over this
	// registry's types was loaded: without any dispatcher in scope (an
	// analysis of the wire package alone) the "unhandled" check would flag
	// everything, so it stays quiet.
	sawDispatch bool
}

type wireProgram struct {
	registries map[string]*wireRegistry
}

var wireState = &wireProgram{registries: map[string]*wireRegistry{}}

func runWireExhaustive(pass *Pass) error {
	collectRegistry(pass)
	collectDispatch(pass)
	return nil
}

// collectRegistry detects a registry package (one with a kind table), holds
// every kind to its encode and decode arm, and records the vocabulary and
// its fuzz seeds.
func collectRegistry(pass *Pass) {
	kindType, _ := pass.Pkg.Scope().Lookup("kind").(*types.TypeName)
	if kindType == nil {
		return
	}
	var table []*types.Const // the kind table
	for _, name := range pass.Pkg.Scope().Names() {
		if c, ok := pass.Pkg.Scope().Lookup(name).(*types.Const); ok && types.Identical(c.Type(), kindType.Type()) {
			table = append(table, c)
		}
	}
	if len(table) == 0 {
		return
	}
	reg := &wireRegistry{
		pkgPath:  pass.Pkg.Path(),
		kinds:    map[string]token.Position{},
		handled:  map[string]bool{},
		seeds:    map[string]bool{},
		tablePos: pass.Fset.Position(table[0].Pos()),
	}
	wireState.registries[reg.pkgPath] = reg

	kindsIn := func(n ast.Node) (out []*types.Const) {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && types.Identical(c.Type(), kindType.Type()) {
					out = append(out, c)
				}
			}
			return true
		})
		return out
	}
	encodes := map[*types.Const]*types.Named{} // kind -> the type whose encode arm writes it
	decodes := map[*types.Const]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch sw := n.(type) {
			case *ast.TypeSwitchStmt:
				for _, c := range sw.Body.List {
					cc := c.(*ast.CaseClause)
					if len(cc.List) != 1 {
						continue
					}
					named := namedOf(pass.TypesInfo.TypeOf(cc.List[0]))
					if named == nil || named.Obj().Pkg() != pass.Pkg {
						continue
					}
					for _, stmt := range cc.Body {
						for _, k := range kindsIn(stmt) {
							encodes[k] = named
							reg.codec = sw
						}
					}
				}
			case *ast.SwitchStmt:
				if sw.Tag == nil || !types.Identical(pass.TypesInfo.TypeOf(sw.Tag), kindType.Type()) {
					return true
				}
				for _, c := range sw.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						for _, k := range kindsIn(e) {
							decodes[k] = true
						}
					}
				}
			}
			return true
		})
	}
	for _, k := range table {
		if named := encodes[k]; named == nil {
			pass.Reportf(k.Pos(), "kind %s has no encode arm: no case of the codec's type switch writes it", k.Name())
		} else {
			reg.kinds[named.Obj().Name()] = pass.Fset.Position(k.Pos())
		}
		if !decodes[k] {
			pass.Reportf(k.Pos(), "kind %s has no decode arm: no switch over the kind byte has a case for it", k.Name())
		}
	}
	// Fuzz seeds: scan the (untype-checked) test files for the decode fuzz
	// harness and record which registered kinds appear as composite
	// literals inside it. Qualified (wire.Query) and unqualified (Query)
	// literal forms both count, so in-package and external test packages
	// work alike.
	for _, f := range pass.TestFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(fd.Name.Name, "FuzzDecodeEnvelope") || fd.Body == nil {
				continue
			}
			reg.hasFuzz = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				switch t := cl.Type.(type) {
				case *ast.Ident:
					reg.seeds[t.Name] = true
				case *ast.SelectorExpr:
					reg.seeds[t.Sel.Name] = true
				}
				return true
			})
		}
	}
}

// collectDispatch records case-clause coverage, checks batch split arms, and
// checks batch build sites.
func collectDispatch(pass *Pass) {
	for _, f := range pass.Files {
		// Track, per node, whether it sits inside a `case AnswerBatch`
		// clause: composite literals there re-wrap an incoming batch (a
		// forwarding remainder) and are not build sites.
		var inBatchCase []bool
		depth := func() bool {
			for _, b := range inBatchCase {
				if b {
					return true
				}
			}
			return false
		}
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch x := m.(type) {
				case *ast.TypeSwitchStmt:
					handleTypeSwitch(pass, x, walk, &inBatchCase)
					return false
				case *ast.CompositeLit:
					// An element-less literal is a zero value (a reset), not
					// a batch under construction.
					if reg, name := registryTypeOf(pass.TypesInfo, x.Type); reg != nil &&
						name == batchTypeName && len(x.Elts) > 0 && !depth() {
						checkBatchBuildSite(pass, f, x)
					}
				}
				return true
			})
		}
		walk(f)
	}
}

// handleTypeSwitch records handled kinds and runs the split-arm check, then
// continues the walk inside each case body with batch-case context.
func handleTypeSwitch(pass *Pass, sw *ast.TypeSwitchStmt, walk func(ast.Node), inBatchCase *[]bool) {
	if reg := wireState.registries[pass.Pkg.Path()]; reg != nil && reg.codec == sw {
		return
	}
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		isBatch := false
		for _, te := range cc.List {
			reg, name := registryTypeOf(pass.TypesInfo, te)
			if reg == nil {
				continue
			}
			reg.handled[name] = true
			reg.sawDispatch = true
			if name == batchTypeName && len(cc.List) == 1 {
				isBatch = true
				checkBatchSplitArm(pass, cc, registryStruct(pass.TypesInfo, te))
			}
		}
		*inBatchCase = append(*inBatchCase, isBatch)
		for _, stmt := range cc.Body {
			walk(stmt)
		}
		*inBatchCase = (*inBatchCase)[:len(*inBatchCase)-1]
	}
}

// checkBatchSplitArm requires every field of the batch struct to be
// referenced inside the case body: a split path that ignores a field drops
// that plane's traffic on this dispatch path only — the hardest bug shape
// to catch in review because the other path works.
func checkBatchSplitArm(pass *Pass, cc *ast.CaseClause, st *types.Struct) {
	if st == nil {
		return
	}
	missing := missingFieldRefs(st, cc.Body)
	if len(missing) > 0 {
		pass.Reportf(cc.Pos(), "%s split path ignores field(s) %s: forward or consume every plane of the batch, or annotate why this path cannot receive them",
			batchTypeName, strings.Join(missing, ", "))
	}
}

// checkBatchBuildSite requires the function containing a batch composite
// literal to reference every batch field, so a newly added field cannot be
// silently dropped by the builder (the Batcher's flush path).
func checkBatchBuildSite(pass *Pass, file *ast.File, lit *ast.CompositeLit) {
	st := registryStruct(pass.TypesInfo, lit.Type)
	if st == nil {
		return
	}
	fn := enclosingFunc(file, lit.Pos())
	if fn == nil {
		return
	}
	missing := missingFieldRefs(st, []ast.Stmt{fn})
	if len(missing) > 0 {
		pass.Reportf(lit.Pos(), "%s built without field(s) %s: the building function must place every plane of the batch, or annotate why those planes cannot be pending here",
			batchTypeName, strings.Join(missing, ", "))
	}
}

// missingFieldRefs returns the struct's field names not referenced (as a
// selector or composite-literal key) anywhere in the given statements.
func missingFieldRefs(st *types.Struct, in []ast.Stmt) []string {
	want := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Exported() {
			want[f.Name()] = true
		}
	}
	for _, stmt := range in {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				delete(want, x.Sel.Name)
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					delete(want, id.Name)
				}
			}
			return true
		})
	}
	var missing []string
	for name := range want {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	return missing
}

// enclosingFunc finds the function declaration body containing pos, wrapped
// as a statement for missingFieldRefs.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Stmt {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil &&
			fd.Body.Pos() <= pos && pos <= fd.Body.End() {
			return fd.Body
		}
	}
	return nil
}

// registryTypeOf resolves a type expression to (registry, type name) when
// the type is a named struct from a collected registry package.
func registryTypeOf(info *types.Info, te ast.Expr) (*wireRegistry, string) {
	if te == nil {
		return nil, ""
	}
	tv, ok := info.Types[te]
	if !ok || tv.Type == nil {
		return nil, ""
	}
	n := namedOf(tv.Type)
	if n == nil || n.Obj().Pkg() == nil {
		return nil, ""
	}
	reg := wireState.registries[n.Obj().Pkg().Path()]
	if reg == nil {
		return nil, ""
	}
	if _, registered := reg.kinds[n.Obj().Name()]; !registered {
		return nil, ""
	}
	return reg, n.Obj().Name()
}

func registryStruct(info *types.Info, te ast.Expr) *types.Struct {
	tv, ok := info.Types[te]
	if !ok || tv.Type == nil {
		return nil
	}
	st, _ := tv.Type.Underlying().(*types.Struct)
	return st
}

func finishWireExhaustive(report func(Diagnostic)) error {
	for _, reg := range wireState.registries {
		names := make([]string, 0, len(reg.kinds))
		for name := range reg.kinds {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			pos := reg.kinds[name]
			if reg.sawDispatch && !reg.handled[name] {
				report(Diagnostic{
					Analyzer: "wireexhaustive",
					Pos:      pos,
					Message:  "frame " + name + " is not handled by any dispatch switch in the analyzed packages",
				})
			}
			if reg.hasFuzz && !reg.seeds[name] {
				report(Diagnostic{
					Analyzer: "wireexhaustive",
					Pos:      pos,
					Message:  "frame " + name + " is not seeded in FuzzDecodeEnvelope; add a representative envelope seed",
				})
			}
		}
		if !reg.hasFuzz && len(reg.kinds) > 0 {
			report(Diagnostic{
				Analyzer: "wireexhaustive",
				Pos:      reg.tablePos,
				Message:  "registry package has no FuzzDecodeEnvelope harness seeding the frame vocabulary",
			})
		}
	}
	return nil
}
