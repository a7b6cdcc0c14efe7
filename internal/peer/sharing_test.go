package peer_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// stepTransport is internal/core's test transport of the same name, kept to
// what this file needs: every link is a FIFO, Send only enqueues, and Step
// delivers one message on the caller's goroutine, from the next link picked by
// a seeded generator among the non-empty ones in sorted order. A run is a
// function of the seed alone, so the counters below repeat exactly and can be
// compared with what the parent commit printed for the same seed.
type stepTransport struct {
	rng      *rand.Rand
	handlers map[string]transport.Handler
	queues   map[[2]string][]wire.Envelope
}

func newStepTransport(seed int64) *stepTransport {
	return &stepTransport{rng: rand.New(rand.NewSource(seed)), handlers: map[string]transport.Handler{}, queues: map[[2]string][]wire.Envelope{}}
}

func (s *stepTransport) Register(node string, h transport.Handler) error {
	s.handlers[node] = h
	return nil
}

func (s *stepTransport) Send(from, to string, msg wire.Message) error {
	if s.handlers[to] == nil {
		return transport.ErrUnknownPeer
	}
	k := [2]string{from, to}
	s.queues[k] = append(s.queues[k], wire.Envelope{From: from, To: to, Msg: msg})
	return nil
}

func (s *stepTransport) Close() error { return nil }

func (s *stepTransport) Step() int {
	var links [][2]string
	for k, q := range s.queues {
		if len(q) > 0 {
			links = append(links, k)
		}
	}
	if len(links) == 0 {
		return 0
	}
	sort.Slice(links, func(i, j int) bool {
		return links[i][0] < links[j][0] || links[i][0] == links[j][0] && links[i][1] < links[j][1]
	})
	k := links[s.rng.Intn(len(links))]
	env := s.queues[k][0]
	s.queues[k] = s.queues[k][1:]
	s.handlers[k[1]](env)
	return 1
}

// fanOut is the topology Star is not: node 0 is the one source and every
// other node imports from it.
func fanOut(k int) workload.Topology {
	t := workload.Topology{Name: "fan-out(k=" + strconv.Itoa(k) + ")", N: k + 1}
	for i := 1; i <= k; i++ {
		t.Links = append(t.Links, workload.Link{Src: 0, Dst: i})
	}
	return t
}

// fixpointHash is the hash harness of PRs 17–20: sha256 over every node's
// DB.Dump(), nodes in sorted order.
func fixpointHash(dbs map[string]string) string {
	ids := make([]string, 0, len(dbs))
	for id := range dbs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s\n%s\n", id, dbs[id])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

type netCounts struct {
	evals, queries, subs, bound uint64
}

// counts reads, over every node: the evaluations run, the answers computed
// (stats.QueriesExecuted), the subscriptions served, and Σ questions ×
// changes (a change is an answer that brought news, or a local insert) — the
// most delta evaluations a network whose subscribers stay in step may run;
// on top of it every subscription may cost one priming evaluation.
func counts(n *core.Network, inserts map[string]uint64) netCounts {
	var c netCounts
	for _, id := range n.Nodes() {
		p := n.Peer(id)
		snap := p.Counters().Snapshot()
		questions, _, _ := p.Questions()
		c.evals += p.Evaluations()
		c.queries += snap.QueriesExecuted
		c.subs += uint64(len(p.DurableSubs()))
		c.bound += uint64(questions) * (snap.UpdatesApplied + inserts[id])
	}
	return c
}

// TestSharingOracle: on cliques with copy rules, a source whose k dependents
// ask one question and a source whose dependents ask k different ones, with
// and without Discover, the fix-point is the centralised referee's (before
// and after live inserts), QueriesExecuted is what the parent commit counted
// on the same schedule — the protocol answers exactly as often as it did —
// and the evaluations behind those answers are at most one per question per
// change.
func TestSharingOracle(t *testing.T) {
	const seed, lives = 7, 4
	for _, tc := range []struct {
		name  string
		topo  workload.Topology
		style workload.RuleStyle
		// QueriesExecuted (update, live inserts) read at the parent commit
		// cf8315f with this file's transport and seed, without / with Discover.
		parentQueries [2][2]uint64
		// evaluations one live insert (two rows at node 0) costs the network
		perInsert uint64
	}{
		{"clique3", workload.Clique(3), workload.StyleCopy, [2][2]uint64{{134, 128}, {136, 128}}, 2 + 2},
		{"clique4", workload.Clique(4), workload.StyleCopy, [2][2]uint64{{1087, 780}, {1296, 780}}, 2 + 3},
		{"clique5", workload.Clique(5), workload.StyleCopy, [2][2]uint64{{8840, 5216}, {9811, 5216}}, 2 + 4},
		{"fan-out one question", fanOut(4), workload.StyleCopy, [2][2]uint64{{8, 32}, {8, 32}}, 2 * 1},
		{"fan-out k questions", fanOut(3), workload.StyleMixed, [2][2]uint64{{6, 24}, {6, 24}}, 2 * 3},
	} {
		var hashes [2]string
		for di, discover := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/discover=%v", tc.name, discover), func(t *testing.T) {
				ctx := context.Background()
				def, err := workload.Generate(tc.topo, workload.DataSpec{RecordsPerNode: 6, Seed: seed, Style: tc.style})
				if err != nil {
					t.Fatal(err)
				}
				n, err := core.Build(def, core.Options{Delta: true, Transport: newStepTransport(seed)})
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
				if discover {
					if err := n.Discover(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if err := n.Update(ctx); err != nil {
					t.Fatal(err)
				}
				if err := n.ValidateAgainstCentralized(); err != nil {
					t.Fatal(err)
				}
				up := counts(n, nil)
				if up.evals > up.bound+up.subs {
					t.Errorf("update: %d evaluations behind %d answers, more than questions × changes + primes = %d + %d", up.evals, up.queries, up.bound, up.subs)
				}
				ref, err := baseline.Centralized(def, rules.ApplyOptions{})
				if err != nil {
					t.Fatal(err)
				}
				have, want := map[string]string{}, map[string]string{}
				for _, id := range n.Nodes() {
					have[id], want[id] = n.Peer(id).DB().Dump(), ref.DBs[id].Dump()
				}
				if hashes[di] = fixpointHash(have); hashes[di] != fixpointHash(want) {
					t.Errorf("fix-point hash %s, the referee's %s", hashes[di], fixpointHash(want))
				}

				// Live inserts at node 0, a pub row and then its wrote row: two
				// changes there and one at every node the joined row reaches,
				// one push per change, one evaluation per question per push.
				src := workload.NodeName(0)
				for i := 0; i < lives; i++ {
					k := relalg.S(fmt.Sprintf("conf/live/%d", i))
					if _, err := n.Node(src).Insert(ctx, "pub", relalg.Tuple{k, relalg.S("t"), relalg.I(2004)}); err != nil {
						t.Fatal(err)
					}
					if _, err := n.Node(src).Insert(ctx, "wrote", relalg.Tuple{relalg.S("a"), k}); err != nil {
						t.Fatal(err)
					}
					if err := n.Quiesce(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if err := n.ValidateAgainstCentralized(); err != nil {
					t.Fatal(err)
				}
				live := counts(n, map[string]uint64{src: 2 * lives})
				if got, want := live.evals-up.evals, tc.perInsert*lives; got != want {
					t.Errorf("%d live inserts ran %d evaluations, want %d (one per question per change)", lives, got, want)
				}
				if live.evals-up.evals > live.bound-up.bound {
					t.Errorf("live: %d evaluations exceed questions × changes = %d", live.evals-up.evals, live.bound-up.bound)
				}
				got := [2]uint64{up.queries, live.queries - up.queries}
				if got != tc.parentQueries[di] {
					t.Errorf("QueriesExecuted (update, live) = %v, the parent commit counted %v", got, tc.parentQueries[di])
				}
				t.Logf("update: %d evaluations behind %d answers; %d live inserts: %d behind %d", up.evals, up.queries, lives, live.evals-up.evals, live.queries-up.queries)

			})
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: fix-point differs with and without Discover", tc.name)
		}
	}
}

// TestClosedPeerKeepsNoEvaluation is the retention rule seen from outside:
// once an update has closed every node — a tree, whose leaves answer while
// closed, and a clique, whose nodes share evaluations while open — no question
// anywhere still holds an evaluation, and a question table empties when the
// last subscriber of each question leaves.
func TestClosedPeerKeepsNoEvaluation(t *testing.T) {
	ctx := context.Background()
	for _, topo := range []workload.Topology{workload.Tree(3, 2), workload.Clique(4)} {
		def, err := workload.Generate(topo, workload.DataSpec{RecordsPerNode: 20, Seed: 3, Overlap: 0.5, Style: workload.StyleMixed})
		if err != nil {
			t.Fatal(err)
		}
		n, err := core.Build(def, core.Options{Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Update(ctx); err != nil {
			t.Fatal(err)
		}
		asked := 0
		for _, id := range n.Nodes() {
			p := n.Peer(id)
			questions, held, pinned := p.Questions()
			if held != 0 || pinned != 0 {
				t.Errorf("%s: closed node %s holds %d evaluations pinning %d tuples", topo.Name, id, held, pinned)
			}
			asked += questions
		}
		if asked == 0 {
			t.Fatalf("%s: no node was asked anything", topo.Name)
		}
		for _, r := range def.Rules {
			for _, src := range r.SourceNodes() {
				n.Peer(src).Handle(wire.Envelope{From: r.HeadNode, To: src, Msg: wire.Unsubscribe{RuleID: r.ID}})
			}
		}
		for _, id := range n.Nodes() {
			if questions, _, _ := n.Peer(id).Questions(); questions != 0 || len(n.Peer(id).DurableSubs()) != 0 {
				t.Errorf("%s: %s keeps %d questions after its last subscriber left", topo.Name, id, questions)
			}
		}
		_ = n.Close()
	}
}
