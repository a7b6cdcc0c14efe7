package peer

import (
	"fmt"
	"time"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/serving"
)

// Continuous queries (watchers) and online local writes: the live half of the
// network API. The paper's network is a long-lived system — peers accept
// local updates at any time and the algorithm keeps propagating implied data
// — so a node exposes two verbs beyond batch orchestration: InsertLocal
// (an online write that triggers incremental re-answers to all subscribers,
// semi-naive when the delta optimisation is on) and Watch (a continuous
// conjunctive query whose result deltas stream over a channel as imported or
// local tuples arrive).
//
// Watchers are hosted by the peer's serving hub (internal/serving): one
// extraction goroutine per peer shares each change's delta extraction and
// per-class semi-naive evaluation across every watcher, deduplicates once per
// class against at most one exactly-once set (the class result delivered so
// far; none for a set-free class, one atom whose every variable is a column),
// and fans the results out through bounded per-watcher queues. The accumulated
// batches of a watcher equal the query's result set at any quiescent moment —
// the invariant the oracle tests pin down.

// Watcher is a continuous query registered at one peer; see serving.Watcher.
type Watcher = serving.Watcher

// Watch registers a continuous query over this peer's local database. The
// first batch on Out() is the query's current result (possibly empty —
// it is always sent, so it doubles as the registration sync point); every
// later batch is the non-empty set of result tuples newly derivable from
// tuples that arrived since (imported by the protocol or written locally),
// each result tuple streamed exactly once.
func (p *Peer) Watch(body string, outVars []string) (*Watcher, error) {
	return p.WatchWith(body, outVars, serving.WatchOptions{})
}

// WatchWith registers a continuous query with an explicit slow-consumer
// policy, queue bound, or resume frontier (the serving layer's remote-watch
// entry point; Watch is the lossless default).
func (p *Peer) WatchWith(body string, outVars []string, o serving.WatchOptions) (*Watcher, error) {
	conj, err := p.watchQuery(body, outVars)
	if err != nil {
		return nil, err
	}
	w, err := p.hub.Register(conj, outVars, o)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", p.id, err)
	}
	return w, nil
}

// watchQuery parses and checks a watch's body and output variables.
func (p *Peer) watchQuery(body string, outVars []string) (cq.Conjunction, error) {
	conj, err := cq.ParseConjunction(body)
	if err != nil {
		return cq.Conjunction{}, err
	}
	// Reject doomed registrations now instead of letting the watcher stream
	// nothing forever: an atom over an undeclared relation can never match
	// (cq evaluation treats it as empty), and an output variable absent from
	// the body is never bound. Both checks are syntactic — no evaluation.
	for _, a := range conj.Atoms {
		if !p.db.HasRelation(a.Rel) {
			return cq.Conjunction{}, fmt.Errorf("peer %s: watch reads undeclared relation %q", p.id, a.Rel)
		}
	}
	atomVars := conj.AtomVars()
	for _, v := range outVars {
		if !atomVars[v] {
			return cq.Conjunction{}, fmt.Errorf("peer %s: watch output variable %s not range-restricted in %q",
				p.id, v, body)
		}
	}
	return conj, nil
}

// Serving exposes the peer's fan-out hub (metrics, tests).
func (p *Peer) Serving() *serving.Hub { return p.hub }

// CloseWatchers closes every live watcher and rejects future registrations
// (used by orchestration shutdown; a Watch racing it either joins this close
// or fails cleanly, never leaks an unclosable stream). It then closes the
// peer's shell, being the one shutdown hook orchestration already calls on
// every peer: no message or verb is stepped after it, the resend timer stops,
// and the pipelined ack worker finishes — the stores seal after it returns,
// so no fsync or ack send may still be in flight. The hub's close sends every
// remote watch its terminal frame.
func (p *Peer) CloseWatchers() {
	p.hub.Close()
	p.sh.Close()
}

// InsertLocal applies an online local write: the tuples enter the local
// database immediately and, when anything is new, every subscriber receives
// an incremental re-answer (semi-naive when the delta optimisation is on) —
// the data keeps flowing without restarting a full Update, as the paper's
// long-lived network model demands. The batch is validated up front
// (declared relation, matching arities) and applied all-or-nothing, and a
// closed peer takes none of it, so a returned error means no tuple was
// written. It returns how many tuples were new.
func (p *Peer) InsertLocal(rel string, tuples ...relalg.Tuple) (int, error) {
	arity := p.db.Arity(rel)
	if arity < 0 {
		return 0, fmt.Errorf("peer %s: insert into undeclared relation %q", p.id, rel)
	}
	for _, t := range tuples {
		if len(t) != arity {
			return 0, fmt.Errorf("peer %s: arity mismatch inserting %d-tuple into %s (arity %d)",
				p.id, len(t), rel, arity)
		}
	}
	added := 0
	var err error
	if !p.sh.Step(func(now time.Time, buf []effect) []effect {
		added, err = p.db.InsertAll(rel, tuples, p.opts.InsertMode) // err is unreachable after validation
		if added == 0 {
			return buf
		}
		return p.step(now, "", localNews{added}, buf)
	}) {
		return 0, fmt.Errorf("peer %s: closed", p.id)
	}
	return added, err
}
