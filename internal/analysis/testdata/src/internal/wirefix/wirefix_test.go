package wirefix

import "testing"

// FuzzDecodeEnvelope mirrors the real wire package's harness shape: the
// analyzer reads the composite literals seeded here (syntactically) to check
// vocabulary coverage. Orphan is deliberately unseeded.
func FuzzDecodeEnvelope(f *testing.F) {
	seeds := []any{
		Ping{N: 1},
		Pong{S: "s"},
		AnswerBatch{},
		Mute{},
	}
	_ = seeds
	_ = f
}
