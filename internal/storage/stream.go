package storage

// Extension is how a seq-stamped range (base, to] of a relation's log meets a
// frontier front: the one rule by which a receiver applies a shipped suffix
// and a sender takes an acknowledgment.
type Extension uint8

const (
	Extends Extension = iota // base ≤ front < to: new from front−base on (an overlap is trimmed)
	Old                      // to ≤ front: nothing new
	Gap                      // base > front: something before the range is missing
)

// Extend classifies the range (base, to] against the frontier front.
func Extend(front, base, to uint64) Extension {
	if base > front {
		return Gap
	}
	if to <= front {
		return Old
	}
	return Extends
}

// Level names one of a Stream's confirmed frontiers.
type Level uint8

const (
	Received Level = iota // the receiver confirmed holding it
	Durable               // the receiver confirmed holding it on stable storage
)

// Stream is a sender's memory of what one receiver holds of seq-stamped logs.
// Shipped moves when a suffix is taken for sending, whether or not the send
// survives; the confirmed frontiers move only by acknowledged ranges that
// Extend says extend them, durable only by acks sent after the receiver
// synced. So a lost send, or an ack overtaking one that was lost, never moves
// a confirmed frontier past data the receiver lacks, and a rewind re-ships
// exactly what is unconfirmed. A map Shipped returns is never written again.
type Stream struct {
	shipped   Marks
	confirmed [2]Marks // by Level
}

// NewStream starts a stream with every frontier at from (nil: nothing sent).
func NewStream(from Marks) *Stream {
	return &Stream{shipped: from.Clone(), confirmed: [2]Marks{from.Clone(), from.Clone()}}
}

// RestoreStream starts a stream at a persisted frontier clamped to have, the
// recovered relation seqs: tuples derived after a crash reuse the seqs of a
// lost log tail, and a frontier above them would skip them.
func RestoreStream(saved, have Marks) *Stream {
	clamped := make(Marks, len(saved))
	for rel, seq := range saved {
		clamped[rel] = min(seq, have[rel])
	}
	return NewStream(clamped)
}

// Shipped is the frontier the next suffix starts from.
func (s *Stream) Shipped() Marks { return s.shipped }

// Frontier returns a confirmed frontier, for reading only.
func (s *Stream) Frontier(l Level) Marks { return s.confirmed[l] }

// Ship advances the shipped frontier to to, taking the map over; no relation
// moves backwards.
func (s *Stream) Ship(to Marks) {
	for rel, seq := range s.shipped {
		if to[rel] < seq {
			to[rel] = seq
		}
	}
	s.shipped = to
}

// Ack takes the receiver's acknowledgment of the range (base, to] of rel and
// reports which confirmed frontiers it advanced.
func (s *Stream) Ack(rel string, base, to uint64, durable bool) (received, durableAdvanced bool) {
	if r := s.confirmed[Received]; Extend(r[rel], base, to) == Extends {
		r[rel] = to
		received = true
	}
	if d := s.confirmed[Durable]; durable && Extend(d[rel], base, to) == Extends {
		d[rel] = to
		durableAdvanced = true
	}
	return received, durableAdvanced
}

// Pending reports whether something shipped is unconfirmed at l.
func (s *Stream) Pending(l Level) bool { return !s.Frontier(l).Covers(s.shipped) }

// Rewind moves the shipped frontier back to the confirmed frontier l.
func (s *Stream) Rewind(l Level) { s.shipped = s.Frontier(l).Clone() }

// Seal promotes the received frontier to durable, for a caller that knows the
// receiver's store now holds everything received. Never on a crash path.
func (s *Stream) Seal() { s.confirmed[Durable] = s.confirmed[Received].Clone() }
