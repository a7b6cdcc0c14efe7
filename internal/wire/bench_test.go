package wire

import (
	"fmt"
	"testing"

	"repro/internal/relalg"
)

// benchBatch is one AnswerBatch frame as the Batcher ships it on a clique: an
// answer of n DBLP-shaped tuples (key, title, year) with its frontier, and a
// piggybacked ack.
func benchBatch(n int) Envelope {
	ts := make([]relalg.Tuple, n)
	for i := range ts {
		ts[i] = relalg.Tuple{
			relalg.S(fmt.Sprintf("conf/edbt/author%04d", i)),
			relalg.S(fmt.Sprintf("A Distributed Algorithm for Robust Data Sharing, part %d", i)),
			relalg.I(int64(1990 + i%30)),
		}
	}
	return Envelope{From: "N1", To: "N2", Msg: AnswerBatch{
		Answers: []Answer{{Epoch: 3, RuleID: "r12", Part: "N1", Columns: []string{"K", "T", "Y"}, Tuples: ts,
			Delta: true, Route: []string{"N1"}, SubID: 9,
			Base: map[string]uint64{"pub": 100}, Seqs: map[string]uint64{"pub": uint64(100 + n)}}},
		Acks: []AnswerAck{{RuleID: "r21", SubID: 4, Base: map[string]uint64{"pub": 40},
			Seqs: map[string]uint64{"pub": 90}, Durable: true}},
	}}
}

var benchSizes = []int{1, 30, 250}

// BenchmarkWireEncode and BenchmarkWireDecode price one frame of the hot
// vocabulary at 1, 30 and 250 tuples per batch: ns, allocations and (as
// frame-bytes) the encoded size.
func BenchmarkWireEncode(b *testing.B) {
	for _, n := range benchSizes {
		env := benchBatch(n)
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var data []byte
			for i := 0; i < b.N; i++ {
				var err error
				if data, err = Encode(env); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "frame-bytes")
		})
	}
}

// BenchmarkWireSize prices the byte count the statistical module and the
// Batcher take of every message: the codec's arms, counting.
func BenchmarkWireSize(b *testing.B) {
	for _, n := range benchSizes {
		msg := benchBatch(n).Msg
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			size := 0
			for i := 0; i < b.N; i++ {
				size = Size(msg)
			}
			b.ReportMetric(float64(size), "msg-bytes")
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, n := range benchSizes {
		data, err := Encode(benchBatch(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				env, err := Decode(data)
				if err != nil || len(env.Msg.(AnswerBatch).Answers[0].Tuples) != n {
					b.Fatal(err)
				}
			}
		})
	}
}
