package peer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fan is one source S holding s(x,y) (and pub, wrote for the benchmarks) and n taps: dependents that are handler
// functions, not peers — they ask S a question with a hand-built Query and
// keep every Answer exactly as it was delivered, so a test sees the slice the
// source handed to the transport.
type fan struct {
	t    testing.TB
	tr   *transport.Mem
	s    *Peer
	mu   sync.Mutex
	got  map[string][]wire.Answer
	conj string
	cols []string
}

func newFan(t testing.TB, opts Options, taps ...string) *fan {
	t.Helper()
	f := &fan{t: t, tr: transport.NewMem(transport.MemOptions{}), got: map[string][]wire.Answer{}, conj: "s(X,Y)", cols: []string{"X", "Y"}}
	t.Cleanup(func() { _ = f.tr.Close() })
	schemas := []relalg.Schema{relalg.MakeSchema("s", 2), relalg.MakeSchema("pub", 3), relalg.MakeSchema("wrote", 2)}
	s, err := New("S", schemas, nil, f.tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	f.s = s
	for _, name := range taps {
		name := name
		if err := f.tr.Register(name, func(env wire.Envelope) {
			if a, ok := env.Msg.(wire.Answer); ok {
				f.mu.Lock()
				f.got[name] = append(f.got[name], a)
				f.mu.Unlock()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *fan) quiesce() {
	f.t.Helper()
	(&harness{tr: f.tr}).quiesce(f.t)
}

// ask sends tap's query for rule "r-"+tap and waits for the answer.
func (f *fan) ask(tap string, epoch, inc uint64, conj string, cols []string) {
	f.t.Helper()
	if err := f.tr.Send(tap, "S", wire.Query{Epoch: epoch, RuleID: "r-" + tap, Conj: conj, Cols: cols, Path: []string{tap}, Incarnation: inc}); err != nil {
		f.t.Fatal(err)
	}
	f.quiesce()
}

// ack confirms receipt of tap's latest answer (not durably).
func (f *fan) ack(tap string) {
	f.t.Helper()
	a := f.last(tap)
	if err := f.tr.Send(tap, "S", wire.AnswerAck{RuleID: a.RuleID, SubID: a.SubID, Base: a.Base, Seqs: a.Seqs}); err != nil {
		f.t.Fatal(err)
	}
	f.quiesce()
}

func (f *fan) last(tap string) wire.Answer {
	f.t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.got[tap]) == 0 {
		f.t.Fatalf("%s received no answer", tap)
	}
	return f.got[tap][len(f.got[tap])-1]
}

// shipped counts the tuples tap has received so far.
func (f *fan) shipped(tap string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, a := range f.got[tap] {
		n += len(a.Tuples)
	}
	return n
}

// insert adds n fresh tuples to S (one push) and returns them.
func (f *fan) insert(from, n int) []relalg.Tuple {
	f.t.Helper()
	var ts []relalg.Tuple
	for i := from; i < from+n; i++ {
		ts = append(ts, relalg.Tuple{relalg.S("k" + strconv.Itoa(i)), relalg.I(int64(i))})
	}
	if _, err := f.s.InsertLocal("s", ts...); err != nil {
		f.t.Fatal(err)
	}
	f.quiesce()
	return ts
}

func keysOf(ts []relalg.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	return out
}

// TestPushEvaluatesAQuestionOnce: three subscribers of one question cost one
// evaluation per change and receive one slice; three subscribers of three
// questions cost three, as they always did. QueriesExecuted counts answers
// computed for subscribers either way.
func TestPushEvaluatesAQuestionOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		questions [3][]string // each tap's column list
		evals     uint64
	}{
		{"one question", [3][]string{{"X", "Y"}, {"X", "Y"}, {"X", "Y"}}, 1},
		{"three questions", [3][]string{{"X", "Y"}, {"Y", "X"}, {"X"}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFan(t, Options{Delta: true}, "T0", "T1", "T2")
			f.insert(0, 5)
			for i, cols := range tc.questions {
				f.ask("T"+strconv.Itoa(i), 1, 1, f.conj, cols)
			}
			if n, _, _ := f.s.Questions(); n != int(tc.evals) {
				t.Fatalf("question table holds %d, want %d", n, tc.evals)
			}
			evals, queries := f.s.Evaluations(), f.s.Counters().Snapshot().QueriesExecuted
			f.insert(100, 50)
			if got := f.s.Evaluations() - evals; got != tc.evals {
				t.Errorf("one push ran %d evaluations, want %d", got, tc.evals)
			}
			if got := f.s.Counters().Snapshot().QueriesExecuted - queries; got != 3 {
				t.Errorf("QueriesExecuted moved by %d for three subscribers, want 3", got)
			}
			a, b := f.last("T0"), f.last("T1")
			if len(a.Tuples) != 50 || len(b.Tuples) != 50 || len(f.last("T2").Tuples) != 50 {
				t.Fatalf("deltas of %d/%d/%d tuples, want 50 each", len(a.Tuples), len(b.Tuples), len(f.last("T2").Tuples))
			}
			if shared := &a.Tuples[0] == &b.Tuples[0]; shared != (tc.evals == 1) {
				t.Errorf("T0 and T1 share one slice: %v", shared)
			}
			if _, held, _ := f.s.Questions(); held != 0 {
				t.Errorf("closed source still holds %d evaluations after its push", held)
			}
		})
	}
}

// TestSharedAnswerIsReadOnly: three real dependents over Mem receive the very
// slice the source evaluated — one of them through a domain map that rewrites
// values — next to a tap that keeps it. Nobody may write through it (-race
// sees a write by a peer against the tap's read; the comparison sees the rest).
func TestSharedAnswerIsReadOnly(t *testing.T) {
	f := newFan(t, Options{Delta: true}, "T0")
	dm := rules.NewDomainMap("S", "H2")
	for i := 0; i < 600; i++ {
		dm.Add(relalg.S("k"+strconv.Itoa(i)), relalg.S("mapped-"+strconv.Itoa(i)))
	}
	var heads []*Peer
	for i := 0; i < 3; i++ {
		id := "H" + strconv.Itoa(i)
		r, err := rules.ParseRule(fmt.Sprintf("r%d: S:s(X,Y) -> %s:h(X,Y)", i, id))
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(id, []relalg.Schema{relalg.MakeSchema("h", 2)}, []rules.Rule{r}, f.tr,
			Options{Delta: true, Maps: rules.BuildMapSet([]*rules.DomainMap{dm})})
		if err != nil {
			t.Fatal(err)
		}
		h.AddNeighbor("S")
		f.s.AddNeighbor(id)
		heads = append(heads, h)
		part, cols := r.BodyPart("S")
		f.conj, f.cols = part.String(), cols
	}
	f.insert(0, 10)
	heads[0].StartUpdateWave()
	f.quiesce()
	f.ask("T0", heads[0].Epoch(), 1, f.conj, f.cols)
	if n, _, _ := f.s.Questions(); n != 1 {
		t.Fatalf("three peers and a tap asking one question make %d questions", n)
	}

	evals := f.s.Evaluations()
	want := f.insert(100, 500)
	if got := f.s.Evaluations() - evals; got != 1 {
		t.Fatalf("the push ran %d evaluations for four subscribers, want 1", got)
	}
	if got := f.last("T0").Tuples; !reflect.DeepEqual(keysOf(got), keysOf(want)) {
		t.Fatalf("the shared slice changed under its readers: %d tuples, first %v", len(got), got[0])
	}
	for i, h := range heads {
		if got := h.DB().Count("h"); got != 510 {
			t.Errorf("H%d holds %d tuples, want 510", i, got)
		}
	}
	if d := heads[0].DB().Dump(); !strings.Contains(d, "k100") || strings.Contains(d, "mapped-") {
		t.Errorf("H0 has no domain map and must store the source's values")
	}
	if d := heads[2].DB().Dump(); !strings.Contains(d, "mapped-100") || strings.Contains(d, "k100") {
		t.Errorf("H2 must store the translated values only")
	}
}

// TestRewoundSubscriberEvaluatesAlone: a subscription rewound to a confirmed
// frontier (member rejoin, a new incarnation, an epoch bump) gets its own
// delta from its own frontier; the in-step ones are not disturbed and keep
// sharing on the next change.
func TestRewoundSubscriberEvaluatesAlone(t *testing.T) {
	rewinds := []struct {
		name   string
		rewind func(f *fan)
		want   int // tuples T0 must be re-sent: it acknowledged the first 15, durably none
	}{
		{"ResendUnackedTo", func(f *fan) { f.s.ResendUnackedTo("T0"); f.quiesce() }, 25},
		{"incarnation", func(f *fan) { f.ask("T0", 1, 2, f.conj, f.cols) }, 25},
		{"epoch", func(f *fan) { f.ask("T0", 2, 1, f.conj, f.cols) }, 10},
	}
	for _, tc := range rewinds {
		t.Run(tc.name, func(t *testing.T) {
			f := newFan(t, Options{Delta: true}, "T0", "T1", "T2")
			f.insert(0, 5)
			for _, tap := range []string{"T0", "T1", "T2"} {
				f.ask(tap, 1, 1, f.conj, f.cols)
			}
			f.ack("T0")
			f.insert(100, 10)
			f.ack("T0") // receipt-confirmed through 15 tuples, contiguously
			f.insert(200, 10)

			evals := f.s.Evaluations()
			others := f.shipped("T1") + f.shipped("T2")
			tc.rewind(f)
			if got := f.s.Evaluations() - evals; got != 1 {
				t.Errorf("the rewind ran %d evaluations, want 1", got)
			}
			if got := len(f.last("T0").Tuples); got != tc.want {
				t.Errorf("T0 was re-sent %d tuples from its own frontier, want %d", got, tc.want)
			}
			if got := f.shipped("T1") + f.shipped("T2"); got != others {
				t.Errorf("the in-step subscribers were shipped %d tuples during the rewind", got-others)
			}

			evals = f.s.Evaluations()
			want := f.insert(300, 7)
			if got := f.s.Evaluations() - evals; got != 1 {
				t.Errorf("the next push ran %d evaluations, want 1 shared by all three", got)
			}
			for _, tap := range []string{"T0", "T1", "T2"} {
				if got := f.last(tap).Tuples; !reflect.DeepEqual(keysOf(got), keysOf(want)) {
					t.Errorf("%s got %d tuples of the next delta, want %d", tap, len(got), len(want))
				}
			}
		})
	}
}

// TestUnevaluableQuestionIsRefused: a query whose columns name a variable no
// atom binds parses, but no evaluation of it can ever succeed. It gets the
// malformed-query answer and never becomes a subscription (it used to become
// one that shipped nothing, silently, forever).
func TestUnevaluableQuestionIsRefused(t *testing.T) {
	f := newFan(t, Options{Delta: true}, "T0")
	f.insert(0, 5)
	for _, bad := range []struct {
		conj string
		cols []string
	}{
		{"s(X,Y)", []string{"X", "Z"}},
		{"s(X,", []string{"X"}},
	} {
		evals := f.s.Evaluations()
		f.ask("T0", 1, 1, bad.conj, bad.cols)
		a := f.last("T0")
		if len(a.Tuples) != 0 || a.Columns != nil || a.Seqs != nil || a.RuleID != "r-T0" {
			t.Errorf("%q %v: answer %+v, want the empty malformed-query answer", bad.conj, bad.cols, a)
		}
		if n, _, _ := f.s.Questions(); n != 0 || len(f.s.DurableSubs()) != 0 || f.s.Evaluations() != evals {
			t.Errorf("%q %v: became a subscription (%d questions, %d subs)", bad.conj, bad.cols, n, len(f.s.DurableSubs()))
		}
	}
	// A well-formed question after the refusals still works, and an invalid
	// re-query leaves it in place.
	f.ask("T0", 1, 1, f.conj, f.cols)
	if got := len(f.last("T0").Tuples); got != 5 {
		t.Fatalf("prime shipped %d tuples, want 5", got)
	}
	f.ask("T0", 1, 1, "s(X,Y)", []string{"Q"})
	if n, _, _ := f.s.Questions(); n != 1 || len(f.s.DurableSubs()) != 1 {
		t.Errorf("an invalid re-query disturbed the subscription: %d questions", n)
	}
}

// TestFailedEvaluationKeepsTheFrontier: a built-in over a variable no atom
// binds passes the slot resolution and fails only when a row reaches it. The
// marks must not move past a delta that was never evaluated: the subscription
// stays unprimed at its frontier instead of skipping the data.
func TestFailedEvaluationKeepsTheFrontier(t *testing.T) {
	f := newFan(t, Options{Delta: true}, "T0")
	f.ask("T0", 1, 1, "s(X,Y), Z > 3", []string{"X"}) // no data yet: evaluates fine, primes at zero
	marks, _, _, ok := subState(f.s, "T0", "r-T0")
	if !ok || marks["s"] != 0 {
		t.Fatalf("primed at %v, %v", marks, ok)
	}
	f.insert(0, 5) // the push's EvalDelta now fails on the built-in
	if a := f.last("T0"); len(a.Tuples) != 0 {
		t.Fatalf("a failed evaluation shipped %d tuples", len(a.Tuples))
	}
	if marks, _, _, _ := subState(f.s, "T0", "r-T0"); marks["s"] != 0 {
		t.Errorf("marks advanced to %v past a delta whose evaluation failed", marks)
	}
}

// TestQuestionLeavesWithItsLastSubscription covers the two sites a question
// can lose a subscription at: Unsubscribe, and a query that makes a
// subscription ask something else.
func TestQuestionLeavesWithItsLastSubscription(t *testing.T) {
	f := newFan(t, Options{Delta: true}, "T0", "T1")
	f.insert(0, 5)
	f.ask("T0", 1, 1, f.conj, f.cols)
	f.ask("T1", 1, 1, f.conj, f.cols)
	if n, _, _ := f.s.Questions(); n != 1 {
		t.Fatalf("%d questions for two subscribers of one", n)
	}
	f.ask("T1", 1, 1, f.conj, []string{"Y"}) // T1 now asks another question: re-primed
	if n, _, _ := f.s.Questions(); n != 2 {
		t.Fatalf("%d questions, want 2", n)
	}
	if got := len(f.last("T1").Tuples); got != 5 {
		t.Errorf("the changed question re-primed with %d tuples, want 5", got)
	}
	f.s.Handle(wire.Envelope{From: "T0", To: "S", Msg: wire.Unsubscribe{RuleID: "r-T0"}})
	if n, _, _ := f.s.Questions(); n != 1 {
		t.Fatalf("%d questions after the first one's last subscriber left, want 1", n)
	}
	f.s.Handle(wire.Envelope{From: "T1", To: "S", Msg: wire.Unsubscribe{RuleID: "r-T1"}})
	f.s.Handle(wire.Envelope{From: "T1", To: "S", Msg: wire.Unsubscribe{RuleID: "r-T1"}}) // twice: a no-op
	if n, _, _ := f.s.Questions(); n != 0 || len(f.s.DurableSubs()) != 0 {
		t.Fatalf("%d questions and %d subscriptions left", n, len(f.s.DurableSubs()))
	}
}

// refClosureHolds and refWaitingOn are closureHolds and WaitingOn as they
// were while they split every path key on every call: the reference the
// per-path records (cyclic, via) are checked against.
func refClosureHolds(p *Peer) bool {
	if len(p.rules) == 0 {
		return true
	}
	for id, r := range p.rules {
		rc := p.ruleComplete[id]
		for _, src := range r.SourceNodes() {
			if rc != nil && rc[src] {
				continue
			}
			if !p.pathsReady {
				return false
			}
			confirmed := false
			for key, rec := range p.paths {
				parts := strings.Split(key, "\x00")
				if len(parts) < 3 || parts[1] != src || parts[len(parts)-1] != p.id {
					continue
				}
				if !rec.stable {
					return false
				}
				confirmed = true
			}
			if !confirmed {
				return false
			}
		}
	}
	return true
}

func refWaitingOn(p *Peer) []string {
	var out []string
	for key, rec := range p.paths {
		if parts := strings.Split(key, "\x00"); !rec.stable && parts[len(parts)-1] == p.id {
			out = append(out, strings.Join(parts, "→"))
		}
	}
	for id, r := range p.rules {
		for _, src := range r.SourceNodes() {
			if !p.ruleComplete[id][src] {
				out = append(out, "source "+src+" of rule "+id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestClosureReadsDerivedPathShape drives recomputePaths over random
// knowledge graphs (self-loops included, which give the two-node key N0→N0),
// random flags, random rule sets and completeness, and compares the closure
// condition and WaitingOn with the split-based reference.
func TestClosureReadsDerivedPathShape(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr := transport.NewMem(transport.MemOptions{})
	defer tr.Close()
	nodes := []string{"N0", "N1", "N2", "N3", "N4"}
	closedSeen, openSeen, shortSeen := 0, 0, 0
	for round := 0; round < 400; round++ {
		id := fmt.Sprintf("P%d", round)
		p, err := New(id, nil, nil, tr, Options{Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		p.id = "N0" // the graph below is over N0..N4; the registration name is irrelevant here
		p.knowledge = map[string]wire.NodeEdges{}
		density := rng.Float64()
		for _, from := range nodes {
			ne := wire.NodeEdges{Node: from, Version: 1}
			for _, to := range nodes {
				if rng.Float64() < density*0.6 {
					ne.Targets = append(ne.Targets, to)
				}
			}
			p.knowledge[from] = ne
		}
		p.recomputePaths()
		for k := range p.paths {
			p.paths[k].stable = rng.Intn(4) > 0
			if parts := strings.Split(k, "\x00"); len(parts) < 3 && parts[len(parts)-1] == "N0" {
				shortSeen++
			}
		}
		p.pathsReady = rng.Intn(5) > 0
		for i, n := 0, rng.Intn(4); i < n; i++ {
			a, b := nodes[1+rng.Intn(4)], nodes[1+rng.Intn(4)]
			text := fmt.Sprintf("r%d: %s:a(X) -> N0:h(X)", i, a)
			if a != b && rng.Intn(2) == 0 {
				text = fmt.Sprintf("r%d: %s:a(X), %s:b(X) -> N0:h(X)", i, a, b)
			}
			r, err := rules.ParseRule(text)
			if err != nil {
				t.Fatal(err)
			}
			p.rules[r.ID] = r
			for _, src := range r.SourceNodes() {
				if rng.Intn(3) == 0 {
					if p.ruleComplete[r.ID] == nil {
						p.ruleComplete[r.ID] = map[string]bool{}
					}
					p.ruleComplete[r.ID][src] = rng.Intn(2) == 0
				}
			}
		}
		want := refClosureHolds(p)
		if got := p.closureHolds(); got != want {
			t.Fatalf("round %d: closureHolds = %v, reference %v; paths %v rules %v", round, got, want, p.paths, p.rules)
		}
		if got, want := p.WaitingOn(), refWaitingOn(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: WaitingOn = %q, reference %q", round, got, want)
		}
		if want && len(p.rules) > 0 {
			closedSeen++
		} else if !want {
			openSeen++
		}
	}
	if closedSeen < 10 || openSeen < 10 || shortSeen == 0 {
		t.Fatalf("the generator is lopsided: %d closed with rules, %d open, %d two-node cycle keys", closedSeen, openSeen, shortSeen)
	}
}
