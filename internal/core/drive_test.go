package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeRound is what a fakeWave reports after one settle.
type fakeRound struct {
	open       []OpenNode
	incomplete bool
}

// fakeWave is a scripted UpdateObserver: the kick lands on attempt landsAt
// (never when negative), round i of the script answers the i-th Open call and
// the last round repeats forever.
type fakeWave struct {
	landsAt   int
	rounds    []fakeRound
	settleErr func(settle int) error // consulted on every Settle, counted from 0

	kicks   []int
	settles int
	probed  [][]string
}

func (f *fakeWave) Kick(_ context.Context, attempt int) (bool, error) {
	f.kicks = append(f.kicks, attempt)
	return attempt == f.landsAt, nil
}

func (f *fakeWave) Settle(context.Context) error {
	f.settles++
	if f.settleErr != nil {
		return f.settleErr(f.settles - 1)
	}
	return nil
}

func (f *fakeWave) Open(context.Context) ([]OpenNode, bool, error) {
	i := f.settles - 1
	if i >= len(f.rounds) {
		i = len(f.rounds) - 1
	}
	return f.rounds[i].open, !f.rounds[i].incomplete, nil
}

func (f *fakeWave) Probe(open []OpenNode) {
	var names []string
	for _, on := range open {
		names = append(names, on.Name)
	}
	f.probed = append(f.probed, names)
}

func TestDriveUpdate(t *testing.T) {
	n02 := OpenNode{Name: "N02", Waiting: []string{"N02→N00→N02", "N02→N03→N00→N02"}}
	n03 := OpenNode{Name: "N03"}
	superseded := errors.New("superseded")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for _, tc := range []struct {
		name    string
		wave    *fakeWave
		probes  int
		settles int
		kicks   int
		probed  [][]string
		err     error    // matched with errors.Is
		errHas  []string // substrings of the error text
	}{
		{name: "closes first time",
			wave:   &fakeWave{rounds: []fakeRound{{}}},
			probes: 0, settles: 1, kicks: 1},
		{name: "open, one probe, closes",
			wave:   &fakeWave{rounds: []fakeRound{{open: []OpenNode{n02}}, {}}},
			probes: 1, settles: 2, kicks: 1, probed: [][]string{{"N02"}}},
		{name: "an incomplete report is not closure, and is not probed",
			wave:   &fakeWave{rounds: []fakeRound{{incomplete: true}, {incomplete: true, open: []OpenNode{n03}}, {}}},
			probes: 0, settles: 3, kicks: 1},
		{name: "never complete",
			wave:   &fakeWave{rounds: []fakeRound{{incomplete: true, open: []OpenNode{n03}}}},
			probes: 0, settles: closureProbes + 1, kicks: 1,
			errHas: []string{"1 node(s) still open after 0 closure probes (and not every node reported): N03"}},
		{name: "kick lands on the third target",
			wave:   &fakeWave{landsAt: 2, rounds: []fakeRound{{}}},
			probes: 0, settles: 1, kicks: 3},
		{name: "kick never lands",
			wave:   &fakeWave{landsAt: -1, rounds: []fakeRound{{}}},
			probes: 0, settles: 0, kicks: closureProbes, err: ErrKickLost},
		{name: "budget exhausted names the open nodes",
			wave:   &fakeWave{rounds: []fakeRound{{open: []OpenNode{n02, n03}}}},
			probes: closureProbes, settles: closureProbes + 1, kicks: 1,
			errHas: []string{"2 node(s) still open after 8 closure probes", "N02: waiting on N02→N00→N02, N02→N03→N00→N02; N03"}},
		{name: "ctx cancelled while settling",
			wave: &fakeWave{rounds: []fakeRound{{open: []OpenNode{n03}}}, settleErr: func(i int) error {
				if i == 1 {
					cancel()
					return ctx.Err()
				}
				return nil
			}},
			probes: 1, settles: 2, kicks: 1, err: context.Canceled},
		{name: "an observer that gives up ends the drive with its own error",
			wave: &fakeWave{rounds: []fakeRound{{open: []OpenNode{n03}}}, settleErr: func(i int) error {
				if i == 2 {
					return superseded
				}
				return nil
			}},
			probes: 2, settles: 3, kicks: 1, err: superseded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runCtx := context.Background()
			if tc.err == context.Canceled {
				runCtx = ctx
			}
			probes, err := DriveUpdate(runCtx, tc.wave)
			if probes != tc.probes || tc.wave.settles != tc.settles || len(tc.wave.kicks) != tc.kicks {
				t.Errorf("probes=%d settles=%d kicks=%v, want %d/%d/%d", probes, tc.wave.settles, tc.wave.kicks, tc.probes, tc.settles, tc.kicks)
			}
			for i, attempt := range tc.wave.kicks {
				if attempt != i {
					t.Errorf("kick attempts %v do not count up from zero", tc.wave.kicks)
				}
			}
			if tc.probed != nil && !reflect.DeepEqual(tc.wave.probed, tc.probed) {
				t.Errorf("probed %v, want %v", tc.wave.probed, tc.probed)
			}
			if len(tc.wave.probed) != probes {
				t.Errorf("%d Probe calls for %d counted rounds", len(tc.wave.probed), probes)
			}
			switch {
			case tc.err == nil && tc.errHas == nil:
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
			case tc.err != nil:
				if !errors.Is(err, tc.err) {
					t.Errorf("err = %v, want %v", err, tc.err)
				}
			default:
				for _, want := range tc.errHas {
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("err = %v, want it to contain %q", err, want)
					}
				}
			}
		})
	}
}

// TestHoldStill pins the settle rule every polling observer shares: the same
// complete sample need times in a row, an incomplete or different sample
// starting the count over. A wake only takes the next sample sooner: woken
// rows wait an hour between samples unless poked, and every sample pokes, so
// they count exactly as the nil-wake rows do.
func TestHoldStill(t *testing.T) {
	type sample struct {
		v        int
		complete bool
	}
	for _, tc := range []struct {
		name    string
		need    int
		script  []sample
		samples int  // how many samples the call takes
		woken   bool // a wake channel poked by every sample; else nil
	}{
		{"need zero returns the first complete sample", 0, []sample{{1, false}, {1, true}}, 2, false},
		{"one repeat", 1, []sample{{1, true}, {2, true}, {2, true}}, 3, false},
		{"an incomplete sample restarts the count", 2, []sample{{1, true}, {1, true}, {1, false}, {1, true}, {1, true}, {1, true}}, 6, false},
		{"woken: one repeat", 1, []sample{{1, true}, {2, true}, {2, true}}, 3, true},
		{"woken: an incomplete sample restarts the count", 2, []sample{{1, true}, {1, true}, {1, false}, {1, true}, {1, true}, {1, true}}, 6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			taken := 0
			every, wake := time.Duration(0), chan struct{}(nil)
			if tc.woken {
				every, wake = time.Hour, make(chan struct{}, 1)
			}
			c, cancel := context.WithTimeout(context.Background(), 5*time.Second) // an unheard wake fails, not hangs
			defer cancel()
			got, err := HoldStill(c, every, wake, func(int) int { return tc.need }, func(context.Context) (int, bool, error) {
				s := tc.script[taken]
				taken++
				if wake != nil {
					wake <- struct{}{}
				}
				return s.v, s.complete, nil
			})
			if err != nil || taken != tc.samples || got != tc.script[tc.samples-1].v {
				t.Errorf("got %d after %d samples (err %v), want %d after %d", got, taken, err, tc.script[tc.samples-1].v, tc.samples)
			}
		})
	}
}

// TestHoldStillLooksAgainSoon: with no wake, a wait whose samples keep
// changing looks again after about as long as it has already waited, not a
// full period, so a sample that needs no repeat ends it within a few rounds
// of coming true even when the period is an hour.
func TestHoldStillLooksAgainSoon(t *testing.T) {
	taken := 0
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second) // fail, not hang
	defer cancel()
	start := time.Now()
	got, err := HoldStill(c, time.Hour, nil, func(int) int { return 0 }, func(context.Context) (int, bool, error) {
		taken++
		return taken, taken >= 4, nil
	})
	if took := time.Since(start); err != nil || got != 4 || took > 100*time.Millisecond {
		t.Fatalf("HoldStill = %d (err %v) after %v, want 4 within 100ms", got, err, took)
	}
}

// TestHoldStillStandstillTakesFullPeriods: the quick looks never shorten a
// verdict that rests on standing still. need repeats of an unchanging sample
// still span need full periods, and the quick looks before the first period
// ends are bounded: the pauses double from minPause up to every.
func TestHoldStillStandstillTakesFullPeriods(t *testing.T) {
	const need, every = 3, 20 * time.Millisecond
	var at []time.Time
	_, err := HoldStill(context.Background(), every, nil, func(int) int { return need }, func(context.Context) (int, bool, error) {
		at = append(at, time.Now())
		return 7, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if span := at[len(at)-1].Sub(at[0]); span < need*every {
		t.Errorf("standstill verdict after %v, want at least %d periods of %v", span, need, every)
	}
	// minPause doubles to every in under log2(every/minPause)+1 pauses.
	quick := int(math.Ceil(math.Log2(float64(every/minPause)))) + 1
	if len(at) > 1+quick+need {
		t.Errorf("%d samples, want at most %d: the quick looks are not bounded", len(at), 1+quick+need)
	}
}
