package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/workload"
)

// bulkSpec describes one of the two fix-point workloads. Both repeat
// Build -> Discover -> Update on a fresh network built from the same
// generated definition until the run's seconds are used up; durable adds
// real sockets, the batched wire protocol, a WAL, and the crash half.
type bulkSpec struct {
	topo    workload.Topology
	data    workload.DataSpec
	durable bool
}

func dblpMem(smoke bool) bulkSpec {
	// The paper's headline shape: 31 nodes, three schema shapes, half the
	// records shared with a neighbour, about 1000 records per node.
	records := 1000
	if smoke {
		records = 40
	}
	return bulkSpec{
		topo: workload.Tree(4, 2),
		data: workload.DataSpec{RecordsPerNode: records, Overlap: 0.5, Style: workload.StyleMixed},
	}
}

func cliqueTCPWAL(smoke bool) bulkSpec {
	// 500 records per node (12 000 tuples to closure) keeps one iteration,
	// crash half included, near 1.7 s, so a run holds ten or more.
	records := 500
	if smoke {
		records = 40
	}
	return bulkSpec{
		topo:    workload.Clique(4),
		data:    workload.DataSpec{RecordsPerNode: records, Style: workload.StyleCopy},
		durable: true,
	}
}

// generate makes the workload's network definition from the run's seed.
func (s bulkSpec) generate(seed int64) (*rules.Network, error) {
	d := s.data
	d.Seed = seed
	return workload.Generate(s.topo, d)
}

// updateToClosure runs Update, and runs it again when it gives up with
// nodes still open: a rebuilt clique whose re-sent answers bring no new data
// ends that way about once in forty tries, and the next wave closes it. The
// retries are reported, not hidden.
func updateToClosure(ctx context.Context, n *core.Network) (retries int, err error) {
	for {
		if err = n.Update(ctx); err == nil || retries == 2 || ctx.Err() != nil {
			return retries, err
		}
		retries++
	}
}

func dumps(n *core.Network) map[string]string {
	out := map[string]string{}
	for _, id := range n.Nodes() {
		out[id] = n.Peer(id).DB().Dump()
	}
	return out
}

func totalTuples(n *core.Network) int {
	t := 0
	for _, id := range n.Nodes() {
		t += n.Peer(id).DB().TotalTuples()
	}
	return t
}

// heapAlloc is the live heap in bytes after a forced collection.
func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func heapMB() float64 { return heapAlloc() / (1 << 20) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// runBulk is the workload loop shared by dblp-mem and clique-tcp-wal.
func runBulk(ctx context.Context, e *env, spec bulkSpec) error {
	def, err := spec.generate(e.cfg.seed)
	if err != nil {
		return err
	}
	// The referee: the centralised fix-point of the same definition, computed
	// once because every iteration rebuilds the same network.
	ref, err := baseline.Centralized(def, rules.ApplyOptions{})
	if err != nil {
		return err
	}
	b := &bulk{e: e, spec: spec, ref: ref.DBs}
	if err := iterate(e, 5, func(r *recorder, i int, traced bool) error { return b.iteration(ctx, r, i, traced) }); err != nil {
		return err
	}
	if e.cfg.trace {
		return b.probes()
	}
	return nil
}

// iterate is the loop of the iterated workloads. One unmeasured iteration
// lets the runtime, the sockets and the page cache warm up (the first
// iterations run up to twice as slow); then iterations repeat until the
// run's seconds are used up, at least minIter of them. A traced run
// alternates untraced and traced iterations, so the overhead of tracing is
// measured inside one process.
func iterate(e *env, minIter int, iteration func(r *recorder, i int, traced bool) error) error {
	warm := newRecorder()
	if err := iteration(warm, -1, false); err != nil {
		return err
	}
	e.rec.foldCounts(warm)
	if e.cfg.smoke {
		minIter = 2
	}
	deadline := time.Now().Add(e.cfg.duration())
	for i := 0; i < minIter || time.Now().Before(deadline); i++ {
		if err := iteration(e.rec, i, e.cfg.trace && i%2 == 1); err != nil {
			return err
		}
	}
	fmt.Fprintf(e.log, "machine speed: calibration median %.2f ms (reference %.0f ms); converge_ms before scaling: median %.2f\n",
		median(e.rec.samples["calib_ms"]), calibRefMS, median(e.rec.samples["raw.converge_ms"]))
	if e.cfg.trace {
		r := e.rec
		r.add("trace.overhead", ratio(median(r.samples[convergeName(true)]), median(r.samples[convergeName(false)])))
	}
	return nil
}

// recordConverge records one iteration's converge time, scaled to the
// reference machine speed by the calibration taken just before it, and keeps
// the unscaled time for the per-layer shares.
func recordConverge(r *recorder, traced bool, converge, cal time.Duration) {
	r.add(convergeName(traced), ms(converge)*calibRefMS/ms(cal))
	r.add("raw."+convergeName(traced), ms(converge))
	r.add("calib_ms", ms(cal))
}

// convergeName keeps the traced iterations' converge times apart from the
// untraced ones, which alone are the end-to-end metric.
func convergeName(traced bool) string {
	if traced {
		return "traced.converge_ms"
	}
	return "converge_ms"
}

type bulk struct {
	e        *env
	spec     bulkSpec
	ref      map[string]*storage.DB
	lastSnap map[string]*storage.DB // the last traced fix-point, for the probes
	frames   []frame                // what that iteration sent up to its fix-point
}

func (b *bulk) options(dir string, tr *tracer) core.Options {
	opts := core.Options{Delta: true}
	if b.spec.durable {
		opts.BatchWindow = 2 * time.Millisecond
		opts.DataDir = dir
		opts.Fsync = wal.FsyncInterval
		mesh := transport.NewTCPMesh("127.0.0.1:0")
		opts.Transport = mesh
		if tr != nil {
			opts.Transport = tr.wrap(mesh)
		}
	} else if tr != nil {
		opts.Transport = tr.wrapMem(transport.NewMem(transport.MemOptions{}))
	}
	return opts
}

// validate checks a network against the referee.
func (b *bulk) validate(r *recorder, n *core.Network, what string) {
	r.op()
	if ok, node := baseline.Equal(n.Snapshot(), b.ref); !ok {
		r.fail("%s: node %s diverges from the centralised fix-point", what, node)
	}
}

// iteration runs one Build -> Discover -> Update (-> Crash -> rebuild ->
// re-converge) and records it in r.
func (b *bulk) iteration(ctx context.Context, r *recorder, i int, traced bool) error {
	e := b.e
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	dir := ""
	if b.spec.durable {
		dir = filepath.Join(e.cfg.dir, fmt.Sprintf("data-%d", i+1))
		defer os.RemoveAll(dir)
	}

	t0 := time.Now()
	def, err := b.spec.generate(e.cfg.seed)
	if err != nil {
		return err
	}
	n, err := core.Build(def, b.options(dir, tr))
	if err != nil {
		return err
	}
	tD := time.Now()
	if err := n.Discover(ctx); err != nil {
		_ = n.Close()
		return err
	}
	r.add("setup_s", time.Since(t0).Seconds())
	r.add("core.discover_ms", ms(time.Since(tD)))

	n.ResetStats()
	cal := calibrate()
	m0 := mallocs()
	tU := time.Now()
	retries, err := updateToClosure(ctx, n)
	returned := time.Since(tU)
	r.op()
	if err != nil {
		r.fail("update: %v", err)
		return n.Close()
	}
	m1 := mallocs()
	agg := stats.Merge(n.Stats())
	converge := agg.UpdateClosed
	if retries > 0 {
		converge = returned // the last wave's closure says nothing about the waves before it
	}
	recordConverge(r, traced, converge, cal)
	r.add("heap_mb", heapMB())
	inserted := float64(agg.TuplesInserted)
	r.add("core.quiesce_slack_s", (returned - converge).Seconds())
	r.add("core.allocs_per_tuple", ratio(float64(m1-m0), inserted))
	r.add("core.tuples_per_s", ratio(inserted, converge.Seconds()))
	r.add("peer.update_retries", float64(retries))
	r.add("peer.queries_executed", float64(agg.QueriesExecuted))
	r.add("peer.dup_answer_ratio", ratio(float64(agg.TuplesDuplicate), float64(agg.TuplesInserted+agg.TuplesDuplicate)))
	r.add("peer.msgs_per_tuple", ratio(float64(agg.TotalSent()), inserted))
	r.add("peer.send_errors", float64(agg.SendErrors))
	if bs, ok := n.BatchStats(); ok {
		r.add("transport.frames_per_tuple", ratio(float64(bs.Frames), inserted))
		r.add("transport.coalesced_ratio", ratio(float64(bs.Coalesced), float64(bs.Frames+bs.Coalesced)))
		r.add("transport.acks_piggybacked", float64(bs.PiggybackedAcks))
	}
	b.validate(r, n, "fix-point")
	r.add("n.inserted", inserted)
	r.add("n.duplicate", float64(agg.TuplesDuplicate))
	if traced {
		b.lastSnap, b.frames = n.Snapshot(), tr.captured()
	}

	if !b.spec.durable {
		err = n.Close()
	} else {
		err = b.crashHalf(ctx, r, n, def, dir, tr)
	}
	if tr != nil {
		e.trace.absorb(tr, r)
	}
	return err
}

// crashHalf is the second half of a durable iteration: power loss at the
// fix-point, a rebuild from the same DataDir, and re-convergence.
func (b *bulk) crashHalf(ctx context.Context, r *recorder, n *core.Network, def *rules.Network, dir string, tr *tracer) error {
	before := dumps(n)
	tuples := totalTuples(n)
	tC := time.Now()
	if err := n.Crash(); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	n2, err := core.Build(def, b.options(dir, tr))
	recovered := time.Since(tC)
	r.op()
	if err != nil {
		r.fail("rebuild after crash: %v", err)
		return nil
	}
	r.add("wal.recover_s", recovered.Seconds())
	r.add("wal.replay_tuples_per_s", ratio(float64(totalTuples(n2)), recovered.Seconds()))
	// No second Discover: the recovered peers discover for themselves when
	// the update wave reaches them, and the run keeps a polling window.
	n2.ResetStats()
	tU := time.Now()
	retries, err := updateToClosure(ctx, n2)
	returned := time.Since(tU)
	r.op()
	if err != nil {
		r.fail("re-converge: %v", err)
		return n2.Close()
	}
	reconverge := stats.Merge(n2.Stats()).UpdateClosed
	if retries > 0 {
		reconverge = returned
	}
	r.add("peer.reconverge_s", reconverge.Seconds())
	r.add("peer.update_retries", float64(retries))
	b.validate(r, n2, "re-converged")
	r.op()
	for node, want := range before {
		if got := n2.Peer(node).DB().Dump(); got != want {
			r.fail("node %s after recovery differs from before the crash", node)
			break
		}
	}
	if err := n2.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.add("wal.disk_bytes_per_tuple", ratio(float64(bytes), float64(tuples)))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
