package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/rules"
)

// liveNet is the serve-load chain: an insert at the tail C crosses two rules
// before the head A fans it out to the watchers.
const liveNet = `
node A { rel a(k,t) }
node B { rel b(k,t) }
node C { rel c(k,t) }
rule rb: C:c(X,T) -> B:b(X,T)
rule ra: B:b(X,T) -> A:a(X,T)
super A
`

const (
	liveWatchers   = 16
	liveGateRate   = 1000                    // the step whose latency is the gated metric
	liveLimitMS    = 100.0                   // p99 limit a rate must meet to count as sustained
	liveLateLimit  = 20 * time.Millisecond   // a generator later than this invalidates its step
	liveDrainLimit = 5 * time.Second         // deliveries still missing after this are lost
	liveBatch      = 2 * time.Millisecond    // Batcher window on every member
	liveBeat       = 25 * time.Millisecond   // membership cadence, as in E19
	liveSuspect    = 1500 * time.Millisecond // wide enough that a stalled CPU is not a dead member
)

// liveStep is one rung of the rate ladder.
type liveStep struct {
	rate int
	dur  time.Duration
}

// liveLadder splits a run's seconds over the ascending rates; the gated
// 1000/s step gets the largest share.
func liveLadder(seconds float64, smoke bool) []liveStep {
	if smoke {
		return []liveStep{{500, 400 * time.Millisecond}, {liveGateRate, 800 * time.Millisecond}}
	}
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	return []liveStep{{500, share(0.15)}, {liveGateRate, share(0.45)}, {2000, share(0.2)}, {4000, share(0.2)}}
}

// liveInsert is one scheduled insert: when it is due, counted from the start
// of its step, and the key it carries.
type liveInsert struct {
	at  time.Duration
	key string
}

// liveSchedule makes the whole insert schedule from the seed: a fixed
// cadence per step, random keys.
func liveSchedule(seed int64, steps []liveStep) [][]liveInsert {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]liveInsert, len(steps))
	for s, st := range steps {
		n := int(st.dur.Seconds() * float64(st.rate))
		gap := time.Second / time.Duration(st.rate)
		for i := 0; i < n; i++ {
			out[s] = append(out[s], liveInsert{at: time.Duration(i) * gap, key: fmt.Sprintf("k%d-%d-%08x", s, i, rng.Uint32())})
		}
	}
	return out
}

// liveMember is one in-process cluster member over its own TCP listener.
type liveMember struct {
	net *core.Network
	tr  *cluster.Transport
}

// liveCluster is the three members, the coordinator and its watches.
type liveCluster struct {
	members map[string]*liveMember
	coord   *cluster.Coordinator
	watches []*cluster.RemoteWatch
	closed  bool
}

func (c *liveCluster) close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.watches {
		w.Close()
	}
	if c.coord != nil {
		_ = c.coord.Close()
	}
	for _, m := range c.members {
		_ = m.net.Close()
	}
}

// bootLive brings the cluster up to the point where inserts can be timed:
// listeners, join, Discover, a baseline Update, every watch primed. dataDir
// "" keeps the members in memory.
func bootLive(ctx context.Context, dataDir string, tr *tracer) (*liveCluster, error) {
	def, err := rules.ParseNetwork(liveNet)
	if err != nil {
		return nil, err
	}
	c := &liveCluster{members: map[string]*liveMember{}}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	book := map[string]string{}
	for _, node := range []string{"A", "B", "C"} {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		ct, err := cluster.New(node, "127.0.0.1:0", seed, cluster.Options{
			HeartbeatEvery: liveBeat, SuspectAfter: liveSuspect, BatchWindow: liveBatch,
		})
		if err != nil {
			return nil, fmt.Errorf("listen %s: %w", node, err)
		}
		opts := core.Options{Delta: true, Hosted: []string{node}, Transport: ct, ResendEvery: 250 * time.Millisecond}
		if tr != nil {
			opts.Transport = tr.wrap(ct)
		}
		if dataDir != "" {
			opts.DataDir = filepath.Join(dataDir, node)
		}
		n, err := core.Build(def, opts)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", node, err)
		}
		ct.Announce()
		c.members[node] = &liveMember{net: n, tr: ct}
		book[node] = ct.Addr()
	}
	c.coord, err = cluster.NewCoordinator(def, "127.0.0.1:0", book, cluster.CoordinatorOptions{
		Membership: cluster.Options{HeartbeatEvery: liveBeat, SuspectAfter: liveSuspect},
		PollEvery:  liveBeat,
	})
	if err != nil {
		return nil, err
	}
	if err := c.coord.WaitMembers(ctx, 3); err != nil {
		return nil, err
	}
	if err := c.coord.Discover(ctx); err != nil {
		return nil, fmt.Errorf("discover: %w", err)
	}
	if err := c.coord.Update(ctx); err != nil {
		return nil, fmt.Errorf("baseline update: %w", err)
	}
	for i := 0; i < liveWatchers; i++ {
		w, err := c.coord.Watch("A", "a(X,T)", []string{"X", "T"}, cluster.WatchOptions{Policy: "block", QueueCap: 256})
		if err != nil {
			return nil, err
		}
		c.watches = append(c.watches, w)
	}
	for _, w := range c.watches {
		if d, err := w.Next(ctx); err != nil || !d.Prime {
			return nil, fmt.Errorf("prime: %+v %v", d, err)
		}
	}
	ok = true
	return c, nil
}

// liveLedger is what the watchers saw: per watcher and insert, the delivery
// latency and how often it arrived.
type liveLedger struct {
	due   []atomic.Int64 // absolute due time of every insert, set before its step starts
	lat   [][]float32    // [watcher][insert] ms from due time to receipt
	seen  [][]uint8      // [watcher][insert] deliveries
	count []atomic.Int64 // [watcher] tuples received
	errs  chan error
}

func newLiveLedger(total int) *liveLedger {
	l := &liveLedger{due: make([]atomic.Int64, total), count: make([]atomic.Int64, liveWatchers),
		errs: make(chan error, liveWatchers)} // one slot per watcher: each reports at most one error
	for w := 0; w < liveWatchers; w++ {
		l.lat = append(l.lat, make([]float32, total))
		l.seen = append(l.seen, make([]uint8, total))
	}
	return l
}

// consume drains one watch until ctx ends.
func (l *liveLedger) consume(ctx context.Context, w int, rw *cluster.RemoteWatch) {
	for {
		d, err := rw.Next(ctx)
		if err != nil {
			return
		}
		if d.Closed {
			l.errs <- fmt.Errorf("watch %d closed early: %s", w, d.Err)
			return
		}
		now := time.Now().UnixNano()
		for _, tup := range d.Tuples {
			i := int(tup[1].Int())
			if i < 0 || i >= len(l.due) {
				l.errs <- fmt.Errorf("watch %d received a tuple nobody inserted: %v", w, tup)
				return
			}
			l.lat[w][i] = float32(float64(now-l.due[i].Load()) / 1e6)
			if l.seen[w][i] < 255 {
				l.seen[w][i]++
			}
		}
		l.count[w].Add(int64(len(d.Tuples)))
	}
}

// drained waits until every watcher has received want tuples.
func (l *liveLedger) drained(want int, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		done := true
		for w := range l.count {
			if l.count[w].Load() < int64(want) {
				done = false
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// liveStepResult is one rung's outcome.
type liveStepResult struct {
	rate, n          int
	p50, p99         float64
	lateMax, callMax time.Duration
	lateCount        int  // inserts that left more than liveLateLimit late
	valid            bool // generator on time and everything delivered before the drain limit
}

func (s liveStepResult) sustained() bool { return s.valid && s.p99 <= liveLimitMS }

// runLadder drives the open-loop generator through the steps against a
// booted cluster and checks what the watchers received.
func runLadder(ctx context.Context, r *recorder, c *liveCluster, sched [][]liveInsert, steps []liveStep) (ladderOutcome, error) {
	total := 0
	for _, s := range sched {
		total += len(s)
	}
	led := newLiveLedger(total)
	wctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for w, rw := range c.watches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			led.consume(wctx, w, rw)
		}()
	}
	defer func() {
		stop()
		wg.Wait()
	}()

	tail := c.members["C"].net.Peer("C")
	var results []liveStepResult
	base := 0
	for s, step := range sched {
		res := liveStepResult{rate: steps[s].rate, n: len(step), valid: true}
		start := time.Now().Add(20 * time.Millisecond)
		for i, in := range step {
			led.due[base+i].Store(start.Add(in.at).UnixNano())
		}
		r.op()
		for i, in := range step {
			due := start.Add(in.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			t := time.Now()
			late := t.Sub(due)
			if late > res.lateMax {
				res.lateMax = late
			}
			if late > liveLateLimit {
				res.lateCount++
			}
			if _, err := tail.InsertLocal("c", relalg.Tuple{relalg.S(in.key), relalg.I(int64(base + i))}); err != nil {
				return ladderOutcome{}, fmt.Errorf("insert: %w", err)
			}
			if call := time.Since(t); call > res.callMax {
				res.callMax = call
			}
		}
		base += len(step)
		drained := led.drained(base, liveDrainLimit)
		if !drained {
			r.fail("step %d/s: deliveries still missing %v after the last insert", res.rate, liveDrainLimit)
		}
		// A late generator did not offer the scheduled load, so its step is
		// set aside rather than measured as if it had: once more than one
		// insert in 200 left over 20 ms late, half of what p99 reads may be
		// the generator's doing. It is not a failed operation: on a shared
		// CPU the generator's thread is stalled for tens of milliseconds a
		// few times a run without the program being at fault.
		res.valid = drained && res.lateCount*200 <= res.n
		var lats []float64
		for w := range led.lat {
			for i := base - len(step); i < base; i++ {
				if led.seen[w][i] > 0 {
					lats = append(lats, float64(led.lat[w][i]))
				}
			}
		}
		res.p50, res.p99 = percentile(lats, 0.50), percentile(lats, 0.99)
		results = append(results, res)
		if !drained {
			break // the backlog would spill into the next step's latencies
		}
	}
	select {
	case err := <-led.errs:
		r.fail("%v", err)
	default:
	}
	// Every watcher's received set must equal the inserted set, no more.
	r.op()
	missing, dups := 0, 0
	for w := range led.seen {
		for i := 0; i < base; i++ {
			switch n := led.seen[w][i]; {
			case n == 0:
				missing++
			case n > 1:
				dups++
			}
		}
	}
	if missing > 0 || dups > 0 {
		r.fail("watchers missed %d deliveries and received %d twice", missing, dups)
	}
	delivered := 0
	for w := range led.count {
		delivered += int(led.count[w].Load())
	}
	return ladderOutcome{steps: results, inserted: base, delivered: delivered}, nil
}

// ladderOutcome is a finished ladder: its rungs and how many tuples went in
// at the tail and came out at the watchers.
type ladderOutcome struct {
	steps               []liveStepResult
	inserted, delivered int
}

// recordLadder turns the step results into metrics and prints the ladder.
func recordLadder(e *env, results []liveStepResult) {
	r := e.rec
	tw := tabwriter.NewWriter(e.log, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rate/s\tinserts\tdeliver_p50_ms\tdeliver_p99_ms\tgen_late_ms_max\tgen_late_inserts\tinsert_call_ms_max\tvalid\tsustained")
	maxRate := 0
	var late, call []float64
	for _, s := range results {
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%.3f\t%.3f\t%d\t%.3f\t%v\t%v\n", s.rate, s.n, s.p50, s.p99, ms(s.lateMax), s.lateCount, ms(s.callMax), s.valid, s.sustained())
		if s.sustained() && s.rate > maxRate {
			maxRate = s.rate
		}
		late, call = append(late, ms(s.lateMax)), append(call, ms(s.callMax))
		if s.rate == liveGateRate {
			r.add("converge_ms", s.p50)
			r.add("serving.deliver_p99_ms", s.p99)
		}
	}
	_ = tw.Flush()
	r.add("serving.max_rate_ok", float64(maxRate))
	r.add("serving.gen_late_ms_max", maxOf(late))
	r.add("peer.insert_call_ms_max", maxOf(call))
}

func runLive(ctx context.Context, e *env) error {
	r := e.rec
	steps := liveLadder(e.cfg.seconds, e.cfg.smoke)
	if e.cfg.trace {
		return runLiveTraced(ctx, e, steps)
	}
	// Set-up is timed three times; the first two clusters are torn down
	// unused and double as the warm-up.
	var c *liveCluster
	for i := 0; i < 3; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, err = bootLive(ctx, "", nil); err != nil {
			return err
		}
		r.add("setup_s", time.Since(t0).Seconds())
	}
	defer c.close()
	out, err := runLadder(ctx, r, c, liveSchedule(e.cfg.seed, steps), steps)
	if err != nil {
		return err
	}
	r.add("heap_mb", heapMB())
	recordLadder(e, out.steps)
	return nil
}

// runLiveTraced is the traced run: the gated step alone without the tracer
// (the base of trace.overhead), the whole ladder under it, and the gated
// step once more on durable members (wal.live_p99_ms).
func runLiveTraced(ctx context.Context, e *env, steps []liveStep) error {
	r := e.rec
	gate := []liveStep{{liveGateRate, steps[1].dur / 2}}
	gateStep := func(dataDir string) (liveStepResult, error) {
		c, err := bootLive(ctx, dataDir, nil)
		if err != nil {
			return liveStepResult{}, err
		}
		defer c.close()
		out, err := runLadder(ctx, r, c, liveSchedule(e.cfg.seed, gate), gate)
		if err != nil || len(out.steps) == 0 {
			return liveStepResult{}, err
		}
		return out.steps[0], nil
	}
	plain, err := gateStep("")
	if err != nil {
		return err
	}

	for i := range steps {
		steps[i].dur /= 2
	}
	tr := newTracer()
	c, err := bootLive(ctx, "", tr)
	if err != nil {
		return err
	}
	defer c.close()
	head := c.members["A"].net.Peer("A")
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // samples the head hub's queue depth
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				depth := 0
				for _, q := range head.Serving().Metrics().Queues {
					depth += q.Depth
				}
				r.add("serving.queue_depth", float64(depth))
			}
		}
	}()
	m0 := mallocs()
	out, err := runLadder(ctx, r, c, liveSchedule(e.cfg.seed, steps), steps)
	close(quit)
	wg.Wait()
	if err != nil {
		return err
	}
	recordLadder(e, out.steps)
	inserted := float64(out.inserted)
	r.add("core.allocs_per_tuple", ratio(float64(mallocs()-m0), inserted))
	r.add("serving.queue_depth_max", maxOf(r.samples["serving.queue_depth"]))
	delete(r.samples, "serving.queue_depth")
	sm := head.Serving().Metrics()
	r.add("serving.extractions", float64(sm.Extractions))
	r.add("serving.evaluations", float64(sm.Evaluations))
	r.add("serving.saved_extractions_ratio", ratio(float64(sm.SavedExtractions), float64(sm.NaiveExtractions)))
	r.add("serving.fanout", ratio(float64(out.delivered), inserted))
	r.add("serving.dropped_batches", float64(sm.DroppedBatches))
	// One extraction per storage change at the watched relation at most,
	// however many watchers share it: the bypass later claims rely on.
	r.op()
	if float64(sm.Extractions) > inserted {
		r.fail("%d extractions for %d changes at the watched relation", sm.Extractions, out.inserted)
	}
	var sent, dup, ins, queries, sendErrs, frames, coalesced, piggy, dropped float64
	for node, m := range c.members {
		nm := cluster.CollectNodeMetrics(m.net, m.tr, nil, node)
		sent += float64(nm.Stats.TotalSent())
		dup += float64(nm.Stats.TuplesDuplicate)
		ins += float64(nm.Stats.TuplesInserted)
		queries += float64(nm.Stats.QueriesExecuted)
		sendErrs += float64(nm.SendErrors)
		frames += float64(nm.WireFrames)
		coalesced += float64(nm.Coalesced)
		piggy += float64(nm.PiggyAcks)
		dropped += float64(nm.OutboxDrops)
	}
	r.add("peer.queries_executed", queries)
	r.add("peer.dup_answer_ratio", ratio(dup, ins+dup))
	r.add("peer.msgs_per_tuple", ratio(sent, inserted))
	r.add("peer.send_errors", sendErrs)
	r.add("transport.frames_per_tuple", ratio(frames, inserted))
	r.add("transport.coalesced_ratio", ratio(coalesced, frames+coalesced))
	r.add("transport.acks_piggybacked", piggy)
	r.add("transport.outbox_dropped", dropped)
	c.close()
	e.trace.absorb(tr, r)

	var traced liveStepResult
	for _, s := range out.steps {
		if s.rate == liveGateRate {
			traced = s
		}
	}
	r.add("trace.overhead", ratio(traced.p50, plain.p50))
	// The captured frames span the ladder from its start; their codec cost
	// is set against the time they took to send.
	if fr := e.trace.frames; len(fr) > 0 {
		codecProbe(r, fr, liveBatch, float64(fr[len(fr)-1].at-fr[0].at)/1e9)
	}

	durable, err := gateStep(filepath.Join(e.cfg.dir, "live-wal"))
	if err != nil {
		return err
	}
	r.add("wal.live_p99_ms", durable.p99)
	return nil
}
