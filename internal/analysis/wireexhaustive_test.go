package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

func TestWireExhaustive(t *testing.T) {
	run(t, "testdata/src", analysis.WireExhaustive,
		"internal/wirefix", "internal/wiredisp")
}
