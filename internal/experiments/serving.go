package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/relalg"
	"repro/internal/rules"
)

// E19: massive fan-out read path under concurrent write/read/watch load. A
// three-member TCP cluster (chain C -> B -> A, so an insert at the tail
// cascades through two rules) serves three traffic classes at once: inserters
// pushing timestamped facts at every node, remote coordinator queries against
// the head, and a population of continuous watches — most of them piled onto
// the head node's relation, the worst case for the old one-delta-extraction-
// per-watcher model. The experiment measures delivered-tuple throughput, the
// fan-out amplification (tuples delivered per tuple inserted), the insert →
// watcher delivery latency distribution (p50/p95/p99 — the p99 is CI's
// -p99-ceiling regression gate), and how many delta extractions the shared
// serving hub actually paid vs what per-watcher pumps would have cost.

const e19Net = `
node A { rel a(k,t) }
node B { rel b(k,t) }
node C { rel c(k,t) }
rule rb: C:c(X,T) -> B:b(X,T)
rule ra: B:b(X,T) -> A:a(X,T)
super A
`

// e19Watch is one live coordinator watch plus its delivery ledger.
type e19Watch struct {
	w      *cluster.RemoteWatch
	node   string
	target int

	delivered uint64
	lats      []float64 // per-tuple insert -> delivery latency, ms
	err       error
}

// E19ServeLoad runs the serve-load scenario and reports its fan-out costs.
func E19ServeLoad(cfg Config) (Result, error) {
	// Watch population: headWatchers share one continuous query at the head
	// node A (the fan-out stress), plus two watchers each at B and C so every
	// member serves someone.
	const headWatchers = 16
	def, err := rules.ParseNetwork(e19Net)
	if err != nil {
		return Result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	names := []string{"A", "B", "C"}
	book := map[string]string{}
	members := map[string]*cluster.Member{}
	defer func() {
		for _, m := range members {
			_ = m.Close()
		}
	}()
	for _, node := range names {
		// No control plane: the peers take the coordinator's kick-off verbs
		// directly, so the run measures the serving path alone.
		cfg := cluster.LoopbackConfig(def, node, book, "", 0, 0)
		cfg.Control = nil
		m, err := cluster.Boot(cfg)
		if err != nil {
			return Result{}, fmt.Errorf("E19: boot %s: %w", node, err)
		}
		members[node] = m
		book[node] = m.Transport().Addr()
	}
	coord, err := cluster.NewCoordinator(def, "127.0.0.1:0", book, cluster.CoordinatorOptions{
		Membership: cluster.Options{HeartbeatEvery: 25 * time.Millisecond},
		PollEvery:  25 * time.Millisecond,
	})
	if err != nil {
		return Result{}, err
	}
	defer coord.Close()
	if err := coord.WaitMembers(ctx, len(names)); err != nil {
		return Result{}, fmt.Errorf("E19: join: %w", err)
	}
	if err := coord.Discover(ctx); err != nil {
		return Result{}, fmt.Errorf("E19: discover: %w", err)
	}
	if err := coord.Update(ctx); err != nil {
		return Result{}, fmt.Errorf("E19: baseline update: %w", err)
	}

	// Per-node insert volume; the chain cascades C's facts through B to A, so
	// the head relation ends with 3N tuples, B with 2N, C with N.
	n := cfg.RecordsPerNode
	if n < 20 {
		n = 20
	}
	watches := []*e19Watch{}
	addWatch := func(node, rel string, count, target int) error {
		for i := 0; i < count; i++ {
			w, err := coord.Watch(node, rel+"(X,T)", []string{"X", "T"},
				cluster.WatchOptions{Policy: "block", QueueCap: 256})
			if err != nil {
				return fmt.Errorf("E19: watch %s at %s: %w", rel, node, err)
			}
			watches = append(watches, &e19Watch{w: w, node: node, target: target})
		}
		return nil
	}
	if err := addWatch("A", "a", headWatchers, 3*n); err != nil {
		return Result{}, err
	}
	if err := addWatch("B", "b", 2, 2*n); err != nil {
		return Result{}, err
	}
	if err := addWatch("C", "c", 2, n); err != nil {
		return Result{}, err
	}
	defer func() {
		for _, ew := range watches {
			ew.w.Close()
		}
	}()
	// Consume every prime (empty — the watches precede all inserts) so the
	// load phase measures pure delta delivery.
	for _, ew := range watches {
		d, err := ew.w.Next(ctx)
		if err != nil || !d.Prime {
			return Result{}, fmt.Errorf("E19: prime at %s: %+v %v", ew.node, d, err)
		}
	}

	// The load phase: one inserter per node, one remote-query client at the
	// head, and every watcher draining concurrently. Each insert is stamped
	// with the microseconds since the load began: that fits a Value's inline
	// ints (±2^29 µs, about 537 s), so a stamp costs no symbol.
	symbolsBefore := relalg.SymbolStats()
	t0 := time.Now()
	var wg sync.WaitGroup
	insertErr := make(chan error, len(names))
	for _, node := range names {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			rel := map[string]string{"A": "a", "B": "b", "C": "c"}[node]
			p := members[node].Network().Peer(node)
			for i := 0; i < n; i++ {
				tup := relalg.Tuple{
					relalg.S(fmt.Sprintf("%s%05d", rel, i)),
					relalg.I(time.Since(t0).Microseconds()),
				}
				if _, err := p.InsertLocal(rel, tup); err != nil {
					insertErr <- fmt.Errorf("E19: insert %s: %w", node, err)
					return
				}
			}
		}(node)
	}
	queryDone := make(chan struct{})
	var queries uint64
	var queryErr error
	go func() {
		defer close(queryDone)
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			if _, err := coord.Query(ctx, "A", "a(X,T)", []string{"X", "T"}); err != nil {
				if ctx.Err() == nil {
					queryErr = err
				}
				return
			}
			queries++
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	var cwg sync.WaitGroup
	for _, ew := range watches {
		cwg.Add(1)
		go func(ew *e19Watch) {
			defer cwg.Done()
			for int(ew.delivered) < ew.target {
				d, err := ew.w.Next(ctx)
				if err != nil {
					ew.err = fmt.Errorf("E19: watch at %s after %d/%d tuples: %w",
						ew.node, ew.delivered, ew.target, err)
					return
				}
				if d.Closed {
					ew.err = fmt.Errorf("E19: watch at %s closed early: %s", ew.node, d.Err)
					return
				}
				now := time.Since(t0).Microseconds()
				for _, tup := range d.Tuples {
					if len(tup) == 2 && tup[1].Kind() == relalg.KindInt {
						ew.lats = append(ew.lats, float64(now-tup[1].Int())/1e3)
					}
					ew.delivered++
				}
			}
		}(ew)
	}
	wg.Wait()
	insertWall := time.Since(t0)
	select {
	case err := <-insertErr:
		return Result{}, err
	default:
	}
	cwg.Wait()
	deliverWall := time.Since(t0)
	symbolsAfter := relalg.SymbolStats()
	cancel() // stop the query client
	<-queryDone
	if queryErr != nil {
		return Result{}, fmt.Errorf("E19: query client: %w", queryErr)
	}

	// Merge the ledgers.
	inserted := uint64(3 * n)
	var delivered uint64
	var lats []float64
	for _, ew := range watches {
		if ew.err != nil {
			return Result{}, ew.err
		}
		delivered += ew.delivered
		lats = append(lats, ew.lats...)
	}
	sort.Float64s(lats)
	p50, p95, p99 := pctile(lats, 0.50), pctile(lats, 0.95), pctile(lats, 0.99)

	// Fan-out accounting from the members' serving hubs: extractions the
	// shared path paid vs what one pump per watcher would have cost, and the
	// tuples the class sets retain for exactly-once delivery (at most one set
	// per class, none for a set-free class). Frames each member's outboxes
	// dropped on overflow are read beside the latencies they would inflate.
	var extracted, naive, saved uint64
	var retained int
	drops := map[string]uint64{}
	for _, node := range names {
		nm := members[node].Metrics()
		drops[node] = nm.OutboxDrops
		if nm.Serving != nil {
			extracted += nm.Serving.Extractions
			naive += nm.Serving.NaiveExtractions
			saved += nm.Serving.SavedExtractions
			retained += nm.Serving.Retained
		}
	}

	rec := RunRecord{
		Mode:             "delta",
		Nodes:            len(names),
		Rules:            len(def.Rules),
		TuplesInserted:   inserted,
		TuplesPerSec:     float64(delivered) / deliverWall.Seconds(),
		Watchers:         len(watches),
		DeliveredTuples:  delivered,
		FanOut:           float64(delivered) / float64(inserted),
		DeltaExtractions: extracted,
		SavedExtractions: saved,
		DeliveryP50MS:    p50,
		DeliveryP95MS:    p95,
		DeliveryP99MS:    p99,
	}
	cfg.collector.addRecord(rec)

	tbl := table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "metric\tvalue")
		fmt.Fprintf(w, "watchers (head/total)\t%d/%d\n", headWatchers, len(watches))
		fmt.Fprintf(w, "tuples inserted\t%d (%.0f/s)\n", inserted, float64(inserted)/insertWall.Seconds())
		fmt.Fprintf(w, "tuples delivered to watchers\t%d (%.0f/s)\n", delivered, rec.TuplesPerSec)
		fmt.Fprintf(w, "fan-out amplification\t%.1fx\n", rec.FanOut)
		fmt.Fprintf(w, "remote queries served meanwhile\t%d\n", queries)
		fmt.Fprintf(w, "delta extractions paid\t%d\n", extracted)
		fmt.Fprintf(w, "extractions per-watcher pumps would pay\t%d\n", naive)
		fmt.Fprintf(w, "extractions saved by sharing\t%d\n", saved)
		fmt.Fprintf(w, "tuples retained by class sets\t%d\n", retained)
		fmt.Fprintf(w, "symbols interned by the load\t%d\n", symbolsAfter.Texts+symbolsAfter.Nulls-symbolsBefore.Texts-symbolsBefore.Nulls)
		fmt.Fprintf(w, "delivery latency p50\t%.2f ms\n", p50)
		fmt.Fprintf(w, "delivery latency p95\t%.2f ms\n", p95)
		fmt.Fprintf(w, "delivery latency p99\t%.2f ms\n", p99)
		for _, node := range names {
			fmt.Fprintf(w, "outbox drops at %s\t%d\n", node, drops[node])
		}
		fmt.Fprintln(w, "\nnote:\tevery insert at the chain's tail is delivered through two rule")
		fmt.Fprintln(w, "\thops and then fanned out to every head watcher from one extraction")
	})
	return Result{ID: "E19", Title: "serving fan-out — concurrent insert/watch/query load over TCP", Table: tbl}, nil
}

// pctile reads the p-quantile from an ascending-sorted sample.
func pctile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}
