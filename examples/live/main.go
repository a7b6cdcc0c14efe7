// Live: the long-lived half of the API. A catalogue network runs to its
// fix-point, then keeps living — a publisher inserts new records online
// (no full Update restart; the standing subscriptions propagate the deltas
// semi-naively) while a continuous query at the library streams every newly
// derived book as it lands. The same program runs unchanged over the
// in-memory router or over real TCP sockets (pass -tcp): the facade is
// transport-agnostic, and without a global quiescence oracle orchestration
// falls back to polling peer states, as in the paper's JXTA deployment.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	p2pdb "repro"
)

const network = `
node Library { rel book(key, title) }
node Press   { rel title(key, name) }

rule r: Press:title(K, N) -> Library:book(K, N)

fact Press:title('a1', 'Peer Data Management')

super Library
`

func main() {
	tcp := flag.Bool("tcp", false, "run every peer behind its own TCP socket")
	flag.Parse()

	def, err := p2pdb.ParseNetwork(network)
	if err != nil {
		log.Fatal(err)
	}
	opts := p2pdb.Options{Delta: true}
	if *tcp {
		opts.Transport = p2pdb.NewTCPMesh("127.0.0.1:0")
	}
	net, err := p2pdb.Build(def, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The continuous query opens before the network even runs: its first
	// batch is the (empty) current result, and every later batch holds the
	// books newly derived from imported or local tuples — each exactly once.
	watch, err := net.Node("Library").Watch("book(K, T)", []string{"K", "T"})
	if err != nil {
		log.Fatal(err)
	}
	collected := make(chan []p2pdb.Tuple)
	go func() {
		var all []p2pdb.Tuple
		for batch := range watch.Out() {
			fmt.Printf("watch: +%d book(s)\n", len(batch.Tuples))
			all = append(all, batch.Tuples...)
		}
		collected <- all
	}()

	if err := net.RunToFixpoint(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("fix-point reached; the network stays live")

	// Online writes: the press publishes two more titles. No Update restart —
	// the subscription ships the delta and the library imports it.
	_, err = net.Node("Press").Insert(ctx, "title",
		p2pdb.Tuple{p2pdb.S("a2"), p2pdb.S("Coordination Rules in Practice")},
		p2pdb.Tuple{p2pdb.S("a3"), p2pdb.S("Distributed Fix-Points")},
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.Quiesce(ctx); err != nil {
		log.Fatal(err)
	}

	rows, err := net.Node("Library").Query("book(K, T)", []string{"K", "T"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library now holds %d books\n", len(rows))

	watch.Close() // drains the final delta, then closes the stream
	streamed := <-collected
	fmt.Printf("the watcher streamed %d books — equal to the final local result: %v\n",
		len(streamed), len(streamed) == len(rows))
}
