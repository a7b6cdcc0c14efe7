package peer

import (
	"fmt"

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
// class against one exactly-once set (the class result delivered so far), and
// fans the results out through bounded per-watcher queues. The accumulated
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
	conj, err := cq.ParseConjunction(body)
	if err != nil {
		return nil, err
	}
	// Reject doomed registrations now instead of letting the watcher stream
	// nothing forever: an atom over an undeclared relation can never match
	// (cq evaluation treats it as empty), and an output variable absent from
	// the body is never bound. Both checks are syntactic — no evaluation.
	for _, a := range conj.Atoms {
		if !p.db.HasRelation(a.Rel) {
			return nil, fmt.Errorf("peer %s: watch reads undeclared relation %q", p.id, a.Rel)
		}
	}
	atomVars := conj.AtomVars()
	for _, v := range outVars {
		if !atomVars[v] {
			return nil, fmt.Errorf("peer %s: watch output variable %s not range-restricted in %q",
				p.id, v, body)
		}
	}
	w, err := p.hub.Register(conj, outVars, o)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", p.id, err)
	}
	return w, nil
}

// Serving exposes the peer's fan-out hub (metrics, tests).
func (p *Peer) Serving() *serving.Hub { return p.hub }

// notifyWatchers wakes the serving hub for a relation change. It runs from
// the database's insert listener — possibly while the peer's mutex is held —
// and never blocks.
func (p *Peer) notifyWatchers(rel string) { p.hub.Notify(rel) }

// reprimeWatchers asks every watcher class to re-run its full conjunction on
// the next hub pass (rule redefinition may have changed what the local
// database derives; the data itself is monotone, so this is robustness). One
// shared evaluation per class serves all its re-primed watchers, and only
// what the class's exactly-once set does not hold yet is delivered.
func (p *Peer) reprimeWatchers() { p.hub.Reprime() }

// CloseWatchers closes every live watcher and rejects future registrations
// (used by orchestration shutdown; a Watch racing it either joins this close
// or fails cleanly, never leaks an unclosable stream). It also stops the
// acknowledgment-resend loop and drains the pipelined ack worker, being the
// one shutdown hook orchestration already calls on every peer — the stores
// seal after it returns, so no fsync or ack send may still be in flight.
func (p *Peer) CloseWatchers() {
	p.stopResend()
	p.stopAck()
	p.hub.Close()
}

// InsertLocal applies an online local write: the tuples enter the local
// database immediately and, when anything is new, every subscriber receives
// an incremental re-answer (semi-naive when the delta optimisation is on) —
// the data keeps flowing without restarting a full Update, as the paper's
// long-lived network model demands. The batch is validated up front
// (declared relation, matching arities) and applied all-or-nothing, so a
// returned error means no tuple was written. It returns how many tuples
// were new.
func (p *Peer) InsertLocal(rel string, tuples ...relalg.Tuple) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	for _, t := range tuples {
		ok, err := p.db.Insert(rel, t, p.opts.InsertMode)
		if err != nil {
			return added, err // unreachable after validation; defensive
		}
		if ok {
			added++
		}
	}
	if added > 0 {
		p.ct.AddInserted(uint64(added))
		// Local news restarts a push route here, exactly like a derived
		// change in A5; receivers chase it, re-open if their closure breaks,
		// and the fix-point rule terminates the cascade.
		p.pushToSubsLocked([]string{p.id})
	}
	return added, nil
}
