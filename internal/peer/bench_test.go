package peer

import (
	"strconv"
	"testing"

	"repro/internal/relalg"
	"repro/internal/wire"
)

// BenchmarkHandleAnswerSingleTuple measures the constant work of one answer:
// a single-source rule's head peer, warm (activated, 1 000 tuples in), takes
// answers of one new tuple each — the shape of a live insert crossing a hop.
// Whatever the answer path sets up per answer is paid per tuple here, so
// allocs/op is the number to watch.
func BenchmarkHandleAnswerSingleTuple(b *testing.B) {
	hs := newHarness(b, Options{Delta: true})
	hs.h.StartUpdateWave()
	hs.quiesce(b)
	answer := func(tuples ...relalg.Tuple) wire.Envelope {
		return wire.Envelope{From: "S", To: "H", Msg: wire.Answer{
			Epoch: hs.h.Epoch(), RuleID: "r", Part: "S", Columns: []string{"X", "Y"},
			Tuples: tuples, Delta: true, Route: []string{"S"},
		}}
	}
	tuple := func(i int) relalg.Tuple {
		return relalg.Tuple{relalg.S("key-" + strconv.Itoa(i)), relalg.I(int64(i))}
	}
	const warm = 1000
	var first []relalg.Tuple
	for i := 0; i < warm; i++ {
		first = append(first, tuple(-1-i))
	}
	hs.h.Handle(answer(first...))
	envs := make([]wire.Envelope, b.N)
	for i := range envs {
		envs[i] = answer(tuple(i))
	}
	before := hs.h.DB().Count("h")
	b.ReportAllocs()
	b.ResetTimer()
	for _, env := range envs {
		hs.h.Handle(env)
	}
	b.StopTimer()
	if got := hs.h.DB().Count("h"); got != before+b.N {
		b.Fatalf("h holds %d tuples after %d one-tuple answers onto %d", got, b.N, before)
	}
}
