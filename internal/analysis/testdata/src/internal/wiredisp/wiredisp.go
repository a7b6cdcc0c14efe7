// Fixture dispatcher for the wireexhaustive analyzer: a type switch over the
// wirefix vocabulary with a batch split arm that drops one plane, and batch
// build sites with and without full field coverage.
package wiredisp

import "internal/wirefix"

type Env struct{ Msg any }

func Dispatch(e Env, out chan<- any) {
	switch m := e.Msg.(type) {
	case wirefix.Ping:
		out <- m
	case wirefix.Pong:
		out <- m
	case wirefix.Mute:
		out <- m
	case wirefix.AnswerBatch: // want "split path ignores field\\(s\\) Pongs"
		for _, p := range m.Pings {
			out <- p
		}
	}
}

func GoodSplit(e Env, out chan<- any) {
	switch m := e.Msg.(type) {
	case wirefix.AnswerBatch:
		for _, p := range m.Pings {
			out <- p
		}
		for _, p := range m.Pongs {
			out <- p
		}
	}
}

func BadBuild(ps []wirefix.Ping) wirefix.AnswerBatch {
	return wirefix.AnswerBatch{Pings: ps} // want "built without field\\(s\\) Pongs"
}

func GoodBuild(ps []wirefix.Ping, qs []wirefix.Pong) wirefix.AnswerBatch {
	return wirefix.AnswerBatch{Pings: ps, Pongs: qs}
}
