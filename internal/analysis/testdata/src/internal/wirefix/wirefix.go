// Fixture registry for the wireexhaustive analyzer: a package with a kind
// table and a codec over it, like repro/internal/wire. Ping, Pong and
// AnswerBatch are fully covered (here, by internal/wiredisp and by the fuzz
// harness in this package); every other kind is missing something.
package wirefix

type Ping struct{ N int }

type Pong struct{ S string }

// Orphan is encoded and decoded but neither dispatched nor fuzz-seeded.
type Orphan struct{ X int }

// Mute has an encode arm only.
type Mute struct{}

type AnswerBatch struct {
	Pings []Ping
	Pongs []Pong
}

type kind byte

const (
	kPing kind = iota + 1
	kPong
	kOrphan // want "not handled by any dispatch switch" "not seeded in FuzzDecodeEnvelope"
	kBatch
	kMute  // want "kind kMute has no decode arm"
	kGhost // want "kind kGhost has no encode arm" "kind kGhost has no decode arm"
)

func encode(b []byte, msg any) []byte {
	switch m := msg.(type) {
	case Ping:
		b = append(b, byte(kPing), byte(m.N))
	case Pong:
		b = append(append(b, byte(kPong)), m.S...)
	case Orphan:
		b = append(b, byte(kOrphan), byte(m.X))
	case AnswerBatch:
		b = append(b, byte(kBatch), byte(len(m.Pings)), byte(len(m.Pongs)))
	case Mute:
		b = append(b, byte(kMute))
	}
	return b
}

func decode(k kind, b []byte) any {
	switch k {
	case kPing:
		return Ping{N: int(b[0])}
	case kPong:
		return Pong{S: string(b)}
	case kOrphan:
		return Orphan{X: int(b[0])}
	case kBatch:
		return AnswerBatch{Pings: make([]Ping, b[0]), Pongs: make([]Pong, b[1])}
	}
	return nil
}
