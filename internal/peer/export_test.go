package peer

// What the question table looks like from outside the package: the external
// tests (package peer_test) drive whole networks through internal/core and
// read these.

// Evaluations reports how many cq evaluations this peer actually ran — at
// most one per question per change, however many subscriptions ask it.
// (stats.QueriesExecuted counts one per answer computed for a subscriber.)
func (p *Peer) Evaluations() uint64 {
	p.sh.Lock()
	defer p.sh.Unlock()
	return p.evals
}

// Questions reports the size of the question table, how many of the questions
// hold an evaluation (an empty result is still one) and how many tuples those
// evaluations pin.
func (p *Peer) Questions() (n, held, pinned int) {
	p.sh.Lock()
	defer p.sh.Unlock()
	for _, q := range p.questions {
		if q.last != nil {
			held++
			pinned += len(q.last.tuples)
		}
	}
	return len(p.questions), held, pinned
}
