package analysis

import "strings"

// internalOnly scopes an analyzer to internal/* packages: the goroutine and
// sleep disciplines bind the long-running library code, not example mains or
// one-shot commands (which terminate with the process). Fixture packages
// under testdata/src follow the same convention (internal/... paths).
func internalOnly(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "internal/") || strings.Contains(pkgPath, "/internal/")
}

// All returns the project's analyzer suite in its canonical order.
// cmd/p2pdbvet runs exactly this set; the package's fixture tests run members
// of it one at a time.
func All() []*Analyzer {
	return []*Analyzer{
		LockSend,
		WireExhaustive,
		GoroShutdown,
		AtomicMix,
		BareSleep,
	}
}

// ByName resolves an analyzer from All, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
