package p2pdb_test

import (
	"context"
	"fmt"
	"log"
	"testing"
	"time"

	p2pdb "repro"
)

func ExampleBuild() {
	def, err := p2pdb.ParseNetwork(`
node A { rel a(x,y) }
node B { rel b(x,y) }
rule r1: B:b(X,Y) -> A:a(Y,X)
fact B:b('1','2')
super A
`)
	if err != nil {
		log.Fatal(err)
	}
	net, err := p2pdb.Build(def, p2pdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	if err := net.RunToFixpoint(context.Background()); err != nil {
		log.Fatal(err)
	}
	rows, err := net.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rows[0])
	// Output: (2, 1)
}

func TestFacadePaperExample(t *testing.T) {
	def := p2pdb.PaperExample()
	net, err := p2pdb.Build(def, p2pdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := net.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if !net.AllClosed() {
		t.Fatal("network did not close")
	}
	if err := net.ValidateAgainstCentralized(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeDurableRestart drives the public durability surface: a network
// with DataDir runs to its fix-point, closes, and a rebuilt network answers
// from recovered state — then keeps accepting live writes through the
// resumed standing subscriptions.
func TestFacadeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	build := func() *p2pdb.Network {
		def, err := p2pdb.ParseNetwork(`
node A { rel a(x,y) }
node B { rel b(x,y) }
rule r1: B:b(X,Y) -> A:a(Y,X)
fact B:b('1','2')
super A
`)
		if err != nil {
			t.Fatal(err)
		}
		net, err := p2pdb.Build(def, p2pdb.Options{Delta: true, DataDir: dir, Fsync: p2pdb.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	net := build()
	if err := net.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}

	net2 := build()
	defer net2.Close()
	rows, err := net2.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].String() != "(2, 1)" {
		t.Fatalf("recovered answer = %v, want [(2, 1)]", rows)
	}
	if err := net2.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := net2.Node("B").Insert(ctx, "b", p2pdb.Tuple{p2pdb.S("3"), p2pdb.S("4")}); err != nil {
		t.Fatal(err)
	}
	if err := net2.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := net2.ValidateAgainstCentralized(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeTCPTransport drives the full public surface — Discover, Update,
// LocalQuery, an online Insert and a Watch — over real TCP sockets through
// the same Build facade as the in-memory runs (acceptance criterion of the
// transport-agnostic redesign).
func TestFacadeTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP facade run skipped in -short mode")
	}
	def := p2pdb.PaperExample()
	net, err := p2pdb.BuildWith(def, p2pdb.NewTCPMesh("127.0.0.1:0"), p2pdb.Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	w, err := net.Node("A").Watch("a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(chan int, 1)
	go func() {
		total := 0
		for batch := range w.Out() {
			total += len(batch.Tuples)
		}
		streamed <- total
	}()

	if err := net.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := net.Update(ctx); err != nil {
		t.Fatal(err)
	}
	if !net.AllClosed() {
		t.Fatal("network did not close over TCP")
	}
	if err := net.ValidateAgainstCentralized(); err != nil {
		t.Fatal(err)
	}
	rows, err := net.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	before := len(rows)

	// Online write over sockets: B's new fact must reach A incrementally.
	if _, err := net.Node("B").Insert(ctx, "b", p2pdb.Tuple{p2pdb.S("live"), p2pdb.S("tcp")}); err != nil {
		t.Fatal(err)
	}
	if err := net.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err = net.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) <= before {
		t.Fatalf("online insert did not reach A over TCP: %d -> %d rows", before, len(rows))
	}
	w.Close()
	if got := <-streamed; got != len(rows) {
		t.Fatalf("watcher streamed %d tuples, local result holds %d", got, len(rows))
	}
}

func TestFacadeParseRule(t *testing.T) {
	r, err := p2pdb.ParseRule("r: B:b(X) -> A:a(X)")
	if err != nil {
		t.Fatal(err)
	}
	if r.HeadNode != "A" {
		t.Errorf("head = %s", r.HeadNode)
	}
	if _, err := p2pdb.ParseRule("garbage"); err == nil {
		t.Error("garbage must fail")
	}
}
