package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/transport"
)

// cmdTCP runs every peer of the network over real TCP sockets through the
// same core.Build facade as the in-memory runs: the TCP mesh gives each peer
// its own loopback listener, and orchestration — lacking a global quiescence
// oracle on a real network, exactly as in the paper's JXTA deployment —
// judges quiescence by balancing the peers' message counters.
func cmdTCP(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: p2pdb tcp <net-file>")
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	mesh := transport.NewTCPMesh("127.0.0.1:0")
	o, err := opts(nil)
	if err != nil {
		return err
	}
	o.Transport = mesh
	n, err := core.Build(def, o)
	if err != nil {
		return err
	}
	defer n.Close()
	// SIGINT/SIGTERM cancel the context instead of killing the process, so
	// the deferred Close still drains watchers and seals durable stores.
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("running %d peers over TCP (super-peer %s at %s)\n",
		len(n.Nodes()), n.Super(), mesh.Addr(n.Super()))
	if err := n.Discover(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Println("interrupted: closing cleanly")
			return nil
		}
		return err
	}
	if err := n.Update(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Println("interrupted: closing cleanly")
			return nil
		}
		return err
	}
	for _, id := range n.Nodes() {
		p := n.Peer(id)
		fmt.Printf("%s [%s] %d tuples at %s\n", id, p.State(), p.DB().TotalTuples(), mesh.Addr(id))
	}
	return nil
}
