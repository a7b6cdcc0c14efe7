package core

import (
	"testing"

	"repro/internal/transport"
)

// Hosted-subset mode (Options.Hosted): one Build per node over a shared
// transport is the in-process skeleton of the multi-process deployment —
// internal/cluster runs exactly this shape with one OS process per Build.

// sharedTransport hands the same underlying router to several Builds while
// letting each Network "own" it: only the last Close actually closes.
type sharedTransport struct {
	transport.Transport
	refs *int
}

func (s sharedTransport) Close() error {
	*s.refs--
	if *s.refs > 0 {
		return nil
	}
	return s.Transport.Close()
}

func TestHostedSubsetReachesFixpoint(t *testing.T) {
	def := mustParse(t, chainNet)
	refs := 3
	mem := transport.NewMem(transport.MemOptions{})
	nets := map[string]*Network{}
	for _, node := range []string{"A", "B", "C"} {
		n, err := Build(def, Options{
			Delta:     true,
			Transport: sharedTransport{Transport: mem, refs: &refs},
			Hosted:    []string{node},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nets[node] = n
		if got := n.Nodes(); len(got) != 1 || got[0] != node {
			t.Fatalf("hosted %s built peers %v", node, got)
		}
	}

	// The process hosting the super-peer drives the run. Its counters are A's
	// alone, so no balance it reads is exact: each of the two settles
	// (Discover, Update) ends by the standstill, about a second each. No
	// router shortcut helps: sharedTransport embeds the Transport interface,
	// so the router's own methods are not even visible through it.
	if err := nets["A"].RunToFixpoint(ctx(t)); err != nil {
		t.Fatal(err)
	}
	for node, n := range nets {
		if !n.AllClosed() {
			t.Fatalf("%s still open", node)
		}
		if err := n.ValidateAgainstCentralized(); err != nil {
			t.Errorf("%s diverges: %v", node, err)
		}
	}
	if got := nets["A"].Peer("A").DB().TotalTuples(); got != 2 {
		t.Fatalf("A holds %d tuples, want 2", got)
	}
}

func TestHostedUnknownNodeFails(t *testing.T) {
	def := mustParse(t, chainNet)
	if _, err := Build(def, Options{Hosted: []string{"nope"}}); err == nil {
		t.Fatal("hosting an undeclared node must fail")
	}
}

func TestHostedSuperElsewhereCannotOrchestrate(t *testing.T) {
	def := mustParse(t, chainNet) // super A
	refs := 1
	n, err := Build(def, Options{
		Transport: sharedTransport{Transport: transport.NewMem(transport.MemOptions{}), refs: &refs},
		Hosted:    []string{"B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Discover(ctx(t)); err == nil {
		t.Fatal("Discover without the hosted super-peer must fail")
	}
	if err := n.Update(ctx(t)); err == nil {
		t.Fatal("Update without the hosted super-peer must fail")
	}
}
