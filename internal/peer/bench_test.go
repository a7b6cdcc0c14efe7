package peer

import (
	"strconv"
	"testing"

	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
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

// BenchmarkPushSharedQuestion measures one push of a 500-record delta (500
// pub rows and their 500 wrote rows, the clique workload's body) to three
// subscribers: asking one question — one evaluation, one result slice — and
// asking three different ones, which costs what three subscribers always did.
func BenchmarkPushSharedQuestion(b *testing.B) {
	const conj, records = "pub(K,T,Y), wrote(A,K)", 500
	for _, bc := range []struct {
		name string
		cols [3][]string
	}{
		{"one-question", [3][]string{{"A", "K", "T", "Y"}, {"A", "K", "T", "Y"}, {"A", "K", "T", "Y"}}},
		{"three-questions", [3][]string{{"A", "K", "T", "Y"}, {"A", "K", "T"}, {"A", "K", "Y"}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := newFan(b, Options{Delta: true}, "T0", "T1", "T2")
			for i, cols := range bc.cols {
				f.ask("T"+strconv.Itoa(i), 1, 1, conj, cols)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := i * records; j < (i+1)*records; j++ {
					k := relalg.S("conf/x/" + strconv.Itoa(j))
					if err := f.s.Seed("pub", relalg.Tuple{k, relalg.S("title-" + strconv.Itoa(j)), relalg.I(2004)}); err != nil {
						b.Fatal(err)
					}
					if err := f.s.Seed("wrote", relalg.Tuple{relalg.S("author-" + strconv.Itoa(j%97)), k}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				f.s.local(localNews{}) // a push with nothing inserted through InsertLocal
			}
			b.StopTimer()
			f.quiesce()
			if got := len(f.last("T2").Tuples); got != records {
				b.Fatalf("the last push shipped %d tuples to T2, want %d", got, records)
			}
		})
	}
}

// newClique builds Clique(n) with copy rules out of bare peers over Mem (what
// core.Build does, without core: this package cannot import it), runs one
// update wave to closure and returns the peers in node order.
func newClique(tb testing.TB, n, records int) []*Peer {
	tb.Helper()
	def, err := workload.Generate(workload.Clique(n), workload.DataSpec{RecordsPerNode: records, Seed: 1, Style: workload.StyleCopy})
	if err != nil {
		tb.Fatal(err)
	}
	tr := transport.NewMem(transport.MemOptions{})
	tb.Cleanup(func() { _ = tr.Close() })
	byName := map[string]*Peer{}
	var peers []*Peer
	for _, decl := range def.Nodes {
		var head []rules.Rule
		for _, r := range def.Rules {
			if r.HeadNode == decl.Name {
				head = append(head, r)
			}
		}
		p, err := New(decl.Name, decl.Schemas, head, tr, Options{Delta: true})
		if err != nil {
			tb.Fatal(err)
		}
		byName[decl.Name], peers = p, append(peers, p)
	}
	for _, r := range def.Rules {
		for _, src := range r.SourceNodes() {
			byName[r.HeadNode].AddNeighbor(src)
			byName[src].AddNeighbor(r.HeadNode)
		}
	}
	for _, fact := range def.Facts {
		if err := byName[fact.Node].Seed(fact.Rel, fact.Tuple); err != nil {
			tb.Fatal(err)
		}
	}
	peers[0].StartUpdateWave()
	(&harness{tr: tr}).quiesce(tb)
	for _, p := range peers {
		if p.State() != Closed {
			tb.Fatalf("%s did not close", p.id)
		}
	}
	return peers
}

// BenchmarkHandleEmptyAnswer measures what nearly every message of an update
// is: a no-news confirmation arriving at a warm 4-clique node (15 cyclic
// paths, three rules). Its source is not complete, so the closure check walks
// the paths through it, and its route has come back around, so nothing is
// relayed: what is left is the chase of no tuples, the path flag and the
// closure condition.
func BenchmarkHandleEmptyAnswer(b *testing.B) {
	peers := newClique(b, 4, 50)
	p, from := peers[0], peers[1].id
	var ruleID string
	for id, r := range p.rules {
		if r.SourceNodes()[0] == from {
			ruleID = id
		}
	}
	env := wire.Envelope{From: from, To: p.id, Msg: wire.Answer{
		Epoch: p.Epoch(), RuleID: ruleID, Part: from, Columns: []string{"A", "K", "T", "Y"},
		Delta: true, Route: []string{p.id, from},
	}}
	before := p.DB().TotalTuples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Handle(env)
	}
	b.StopTimer()
	if p.State() != Closed || p.DB().TotalTuples() != before {
		b.Fatalf("the confirmations changed the node: %v, %d tuples (was %d)", p.State(), p.DB().TotalTuples(), before)
	}
	if got := p.Counters().Snapshot().TuplesDuplicate; got < uint64(b.N) {
		b.Fatalf("only %d of %d answers were counted as no-news", got, b.N)
	}
}
