package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

func TestLockSend(t *testing.T) {
	run(t, "testdata/src", analysis.LockSend, "internal/locky")
}
