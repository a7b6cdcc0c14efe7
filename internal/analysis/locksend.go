package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSend flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends and receives, selects without a
// default, WaitGroup/Cond waits, file fsyncs, net.Conn reads/writes,
// time.Sleep, and transport sends. Holding a mutex across any of these is
// the deadlock class PR 7 hit in consensus gap-fill (a channel send under
// the node mutex wedged against a handler that needed the same mutex to
// drain the channel): the lock's critical section must end before the
// blocking operation, or the operation must be provably non-blocking and
// annotated.
//
// The scan is intraprocedural and lexical: within one function body,
// statements after x.Lock() and before x.Unlock() are "held" (a deferred
// unlock holds to the end of the function). Branches are scanned with a
// copy of the held set. This over-approximates — an early conditional
// unlock+return keeps later statements flagged-free but a fallthrough
// unlock is missed — which is the right bias for a gate: rare false
// positives become audited //lint:allow annotations.
var LockSend = &Analyzer{
	Name: "locksend",
	Run:  runLockSend,
}

// lockMethods map a callee's full name to +1 (acquire) or -1 (release).
var lockMethods = map[string]int{
	"(*sync.Mutex).Lock":     +1,
	"(*sync.Mutex).Unlock":   -1,
	"(*sync.RWMutex).Lock":   +1,
	"(*sync.RWMutex).Unlock": -1,
	// Read locks count too: a blocked reader still wedges every writer.
	"(*sync.RWMutex).RLock":   +1,
	"(*sync.RWMutex).RUnlock": -1,
}

// blockingCalls are callees that block the goroutine (or, for transport
// sends, may block behind a slow remote or re-enter a handler).
// Cond.Wait is deliberately absent: it must be called with its lock held
// (Wait unlocks internally), so flagging it would condemn the one correct
// pattern for condition variables.
var blockingCalls = map[string]string{
	"(*sync.WaitGroup).Wait":                    "WaitGroup.Wait",
	"(*os.File).Sync":                           "fsync",
	"(net.Conn).Write":                          "net.Conn write",
	"(net.Conn).Read":                           "net.Conn read",
	"(*net.TCPConn).Write":                      "net.Conn write",
	"(*net.TCPConn).Read":                       "net.Conn read",
	"time.Sleep":                                "time.Sleep",
	"(repro/internal/transport.Transport).Send": "transport send",
}

func runLockSend(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				scanBlock(pass, body.List, map[string]token.Pos{})
			}
			return true // nested FuncLits get their own (empty) held set
		})
	}
	return nil
}

// scanBlock walks stmts in order, tracking which mutexes are held. held maps
// the receiver expression ("p.mu") to the Lock call position.
func scanBlock(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && applyLockOp(pass, call, held) {
				continue
			}
		case *ast.DeferStmt:
			// `defer x.Unlock()` releases at return: lexically the lock stays
			// held for the rest of this function, which is exactly the
			// region to scan. Nothing to update.
			// `defer func() { ... }()` bodies run after return — scan them
			// with an empty held set via the FuncLit walk in runLockSend.
			continue
		}
		if len(held) > 0 {
			checkBlocking(pass, stmt, held)
		}
		// Recurse into compound statements with a copy of the held set, so a
		// branch-local Lock/Unlock cannot corrupt the outer view.
		for _, nested := range nestedBlocks(stmt) {
			scanBlock(pass, nested, copyHeld(held))
		}
	}
}

// applyLockOp updates held if call is a Lock/Unlock on a sync mutex;
// reports true when it was one.
func applyLockOp(pass *Pass, call *ast.CallExpr, held map[string]token.Pos) bool {
	delta, ok := lockMethods[calleeFullName(pass.TypesInfo, call)]
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	key := exprString(sel.X)
	if delta > 0 {
		held[key] = call.Pos()
	} else {
		delete(held, key)
	}
	return true
}

// checkBlocking reports blocking operations in stmt's own expressions (not
// in nested blocks, which scanBlock recurses into separately, and not in
// nested function literals, which run on their own goroutine or later).
func checkBlocking(pass *Pass, stmt ast.Stmt, held map[string]token.Pos) {
	// A select with a default never blocks; its communication clauses are
	// polling, not waiting. Skip the select header but still let scanBlock
	// recurse into the case bodies (held set applies there).
	if sel, ok := stmt.(*ast.SelectStmt); ok {
		if selectHasDefault(sel) {
			return
		}
		reportHeld(pass, sel.Pos(), "select without default", held)
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			return stmtIsSelf(stmt, n) // nested blocks are scanned by scanBlock
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			reportHeld(pass, x.Arrow, "channel send", held)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				reportHeld(pass, x.Pos(), "channel receive", held)
			}
		case *ast.RangeStmt:
			// `for range ch` blocks between elements; the range expression
			// itself is what we flag. Only channel ranges block.
			if isChanType(pass, x.X) {
				reportHeld(pass, x.Range, "range over channel", held)
			}
		case *ast.CallExpr:
			if what, ok := blockingCalls[calleeFullName(pass.TypesInfo, x)]; ok {
				reportHeld(pass, x.Pos(), what, held)
			}
		}
		return true
	})
}

// stmtIsSelf reports whether n is stmt's own top-level block (the only block
// Inspect should descend into before scanBlock takes over).
func stmtIsSelf(stmt ast.Stmt, n ast.Node) bool {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return n == s
	}
	return false
}

func reportHeld(pass *Pass, pos token.Pos, what string, held map[string]token.Pos) {
	for mu, lockPos := range held {
		pass.Reportf(pos, "%s while %s is held (locked at %s); unlock first or annotate why this cannot block",
			what, mu, pass.Fset.Position(lockPos))
	}
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isChanType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// nestedBlocks returns the statement lists nested directly under stmt.
func nestedBlocks(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				out = append(out, e.List)
			case *ast.IfStmt:
				out = append(out, nestedBlocks(e)...)
			}
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, nestedBlocks(s.Stmt)...)
	}
	return out
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
