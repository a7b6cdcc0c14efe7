// Package callers is the fixture of the root TestEveryFunctionHasACaller:
// callermain uses everything here but TestOnly, some of it only through an
// instantiation or an interface.
package callers

// Used is called by callermain.
func Used() int { return 1 }

// TestOnly is called by callers_test.go alone: the one name reported.
func TestOnly() int { return 2 }

// Box is generic; callermain calls Get only on a Box[int].
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

// Namer is how callermain calls Thing.Name.
type Namer interface{ Name() string }

type Thing struct{}

func (Thing) Name() string { return "thing" }
