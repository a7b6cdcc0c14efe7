package analysis

import (
	"go/ast"
)

// BareSleep flags raw time.Sleep calls in non-test code. A sleep is a
// polling loop that cannot be cancelled: it holds goroutines (and process
// shutdown) hostage for its full duration and hides the actual condition
// being awaited. Waiting must either select on the quit/ctx channel
// alongside a timer/ticker, or live in a designated, audited backoff helper
// annotated with //lint:allow baresleep <reason>.
//
// Motivated by the polling loops that delayed clean Close in the serve
// path; the analyzer keeps new ones from appearing.
var BareSleep = &Analyzer{
	Name:  "baresleep",
	Run:   runBareSleep,
	Match: internalOnly,
}

func runBareSleep(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if calleeFullName(pass.TypesInfo, call) == "time.Sleep" {
				pass.Reportf(call.Pos(),
					"raw time.Sleep: poll with a timer/ticker in a select against the quit/ctx channel, or annotate a designated backoff helper")
			}
			return true
		})
	}
	return nil
}
