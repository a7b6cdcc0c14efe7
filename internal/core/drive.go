package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/peer"
)

// The update driver. The paper's update phase closes a node by itself once
// every maximal dependency path it sits on has reported (Lemma 1), so a
// settled network with open nodes is a defect, not a state to be polled out
// of: the driver probes such nodes a bounded number of times, counts the
// rounds, and fails naming what each open node was waiting on. Who can see the
// network differs — peers in this process, a coordinator with wire rounds, the
// control plane's elected member — so the loop works through an UpdateObserver
// and exists once.

// closureProbes bounds the driver: kick attempts until one lands, and
// settled-but-open rounds (each probed, at fix-point cost) until the wave
// closes.
const closureProbes = 8

// ErrKickLost is DriveUpdate's error when no kick attempt took effect.
var ErrKickLost = errors.New("update: kick never landed")

// OpenNode is an activated node an observer found not closed, with what it is
// waiting on (peer.WaitingOn) when the observer can look inside the peer.
type OpenNode struct {
	Name    string
	Waiting []string
}

func (o OpenNode) String() string {
	if len(o.Waiting) == 0 {
		return o.Name
	}
	return o.Name + ": waiting on " + strings.Join(o.Waiting, ", ")
}

// UpdateObserver is the driver's view of one update wave.
type UpdateObserver interface {
	// Kick starts the wave; attempt counts from zero so an observer that
	// addresses members can rotate its target. A kick that did not
	// demonstrably land is retried, not trusted.
	Kick(ctx context.Context, attempt int) (landed bool, err error)
	// Settle blocks until the wave holds still.
	Settle(ctx context.Context) error
	// Open lists the activated nodes that are not closed, sorted by name.
	// complete is false when some node's state could not be read: absence
	// must never read as closure.
	Open(ctx context.Context) (open []OpenNode, complete bool, err error)
	// Probe asks the open nodes to regenerate their confirming cascades.
	Probe(open []OpenNode)
}

// DriveUpdate runs one update wave to closure and reports how many probe
// rounds that took; zero is the healthy answer. Observer errors end the drive
// and are returned as they are.
func DriveUpdate(ctx context.Context, o UpdateObserver) (probes int, err error) {
	for attempt, landed := 0, false; !landed; attempt++ {
		if attempt >= closureProbes {
			return 0, ErrKickLost
		}
		if landed, err = o.Kick(ctx, attempt); err != nil {
			return 0, err
		}
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return probes, err
		}
		if err := o.Settle(ctx); err != nil {
			return probes, err
		}
		open, complete, err := o.Open(ctx)
		if err != nil || complete && len(open) == 0 {
			return probes, err
		}
		if attempt >= closureProbes {
			names, unheard := make([]string, len(open)), ""
			for i, on := range open {
				names[i] = on.String()
			}
			if !complete {
				unheard = " (and not every node reported)"
			}
			return probes, fmt.Errorf("update: %d node(s) still open after %d closure probes%s: %s",
				len(open), probes, unheard, strings.Join(names, "; "))
		}
		if complete {
			o.Probe(open)
			probes++
		}
	}
}

// HoldStill samples until the same complete sample has repeated need(sample)
// times in a row, pausing between samples until wake receives or every has
// passed, and returns it; an incomplete sample restarts the count. It is the
// polling loop of every observer: of state reports (the control plane), of
// AwaitBalance. A nil wake waits out every; a wake is
// a reason to look sooner, never a verdict.
func HoldStill[S comparable](ctx context.Context, every time.Duration, wake <-chan struct{}, need func(S) int, sample func(context.Context) (S, bool, error)) (S, error) {
	var last S
	have, still := false, 0
	for {
		cur, complete, err := sample(ctx)
		if err != nil {
			return cur, err
		}
		if complete && have && cur == last {
			still++
		} else {
			still = 0
		}
		if complete && still >= need(cur) {
			return cur, nil
		}
		last, have = cur, complete
		select {
		case <-ctx.Done():
			return cur, ctx.Err()
		case <-wake:
		case <-time.After(every):
		}
	}
}

// Balance is one termination-detection sample: the messages started and
// finished, and whether the counters read cover the whole network.
type Balance struct {
	Started, Finished uint64
	Exact             bool
}

// AwaitBalance samples until an exact balance — nothing is in flight, no window
// needed — or until a sample has repeated stall times: a lost message never
// clears, and counters that miss a peer (Exact unset) prove nothing by
// balancing. Nor do counters that read more finished than started: some were
// lost (a restart, a member gone), and from then on only standing still counts.
// wake (stats.Tally.Zero in process; nil over the wire, where no member can
// poke the waiter) may cut a pause short, but only a sample decides.
func AwaitBalance(ctx context.Context, every time.Duration, wake <-chan struct{}, stall int, sample func(context.Context) (Balance, bool, error)) error {
	skewed := false
	_, err := HoldStill(ctx, every, wake, func(b Balance) int {
		skewed = skewed || b.Finished > b.Started
		if b.Exact && !skewed && b.Started == b.Finished {
			return 0
		}
		return stall
	}, sample)
	return err
}

// readBalance takes one sample (Mattern's counter method) over n peers: every
// finished total, then every started total. Both only grow, and a message
// finishes after all it caused has started (peer.received), so equal sums
// mean nothing was in flight between the passes.
func readBalance(n int, totals func(i int) (started, finished uint64)) (b Balance) {
	for i := 0; i < n; i++ {
		_, finished := totals(i)
		b.Finished += finished
	}
	for i := 0; i < n; i++ {
		started, _ := totals(i)
		b.Started += started
	}
	return b
}

// localWave observes a wave from inside the process that hosts the peers.
type localWave struct {
	n     *Network
	kick  func()
	nodes []string // the nodes that must close; nil: every hosted node
}

func (w localWave) Kick(context.Context, int) (bool, error) {
	w.kick()
	return true, nil
}

func (w localWave) Settle(ctx context.Context) error { return w.n.Quiesce(ctx) }

func (w localWave) Open(context.Context) ([]OpenNode, bool, error) {
	peers, _, order := w.n.hosted()
	nodes := w.nodes
	if nodes == nil {
		nodes = order
	}
	var open []OpenNode
	for _, id := range nodes {
		if p := peers[id]; p.Activated() && p.State() != peer.Closed {
			open = append(open, OpenNode{Name: id, Waiting: p.WaitingOn()})
		}
	}
	return open, true, nil
}

func (w localWave) Probe(open []OpenNode) {
	for _, on := range open {
		if p := w.n.Peer(on.Name); p != nil {
			p.Probe()
		}
	}
}

// drive runs one in-process wave through the driver and keeps the count of
// probe rounds it needed.
func (n *Network) drive(ctx context.Context, w localWave) error {
	w.n = n
	probes, err := DriveUpdate(ctx, w)
	n.probeRounds.Add(uint64(probes))
	return err
}

// ProbeRounds reports how many closure-probe rounds this network's updates
// have needed so far. Anything but zero means a wave settled with nodes open.
func (n *Network) ProbeRounds() uint64 { return n.probeRounds.Load() }
