package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// metricDef is one named metric of the benchmark. BENCHMARK.json at the root
// of the repository lists the same names, units, directions and bounds; a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the gated metrics. Every workload reports every one of them,
// so each is defined by what a user of that workload waits for or pays:
//
//	setup_s      everything before the timed phase (generate, Build or boot,
//	             join/agree, Discover, watches primed), median of the run's set-ups
//	converge_ms  a change made -> every place that must hold it holds it:
//	             Update call -> last node closed (dblp-mem, clique-tcp-wal),
//	             tuple due -> watcher receipt, p50 at 1000/s (live-fanout),
//	             first insert -> every mirror durable at the frontier (replica-ship);
//	             the iterated workloads scale it to reference speed (calibrate.go)
//	heap_mb      HeapAlloc after a forced GC once converged
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "converge_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer are the attribution metrics of the traced run, one layer per
// prefix (the package name). They carry no bound. A layer a workload
// bypasses reports 0 there: that zero is the bypass prediction.
var perLayer = []metricDef{
	{Name: "core.discover_ms", Unit: "ms", Better: "lower"},
	{Name: "core.quiesce_slack_s", Unit: "s", Better: "lower"},
	{Name: "core.allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "core.tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peer.handler_busy_s", Unit: "s", Better: "lower"},
	{Name: "peer.queries_executed", Unit: "count", Better: "lower"},
	{Name: "peer.dup_answer_ratio", Unit: "ratio", Better: "lower"},
	{Name: "peer.msgs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "peer.send_errors", Unit: "count", Better: "lower"},
	{Name: "peer.ack_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "peer.ack_rtt_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "peer.insert_call_ms_max", Unit: "ms", Better: "lower"},
	{Name: "peer.reconverge_s", Unit: "s", Better: "lower"},
	{Name: "peer.update_retries", Unit: "count", Better: "lower"},
	{Name: "cq.evaldelta_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "cq.eval_share", Unit: "ratio", Better: "lower"},
	{Name: "storage.insert_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "storage.dup_insert_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "storage.insert_share", Unit: "ratio", Better: "lower"},
	{Name: "relalg.heap_bytes_per_tuple", Unit: "bytes", Better: "lower"},
	{Name: "wire.encode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wire.encoded_bytes_per_tuple", Unit: "bytes", Better: "lower"},
	{Name: "wire.codec_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.frames_per_tuple", Unit: "count", Better: "lower"},
	{Name: "transport.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "transport.acks_piggybacked", Unit: "count", Better: "higher"},
	{Name: "transport.send_call_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "transport.transit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "transport.transit_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "transport.outbox_dropped", Unit: "count", Better: "lower"},
	{Name: "wal.append_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wal.sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wal.disk_bytes_per_tuple", Unit: "bytes", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.replay_tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wal.live_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serving.deliver_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serving.max_rate_ok", Unit: "1/s", Better: "higher"},
	{Name: "serving.gen_late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "serving.extractions", Unit: "count", Better: "lower"},
	{Name: "serving.evaluations", Unit: "count", Better: "lower"},
	{Name: "serving.saved_extractions_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serving.fanout", Unit: "ratio", Better: "higher"},
	{Name: "serving.dropped_batches", Unit: "count", Better: "lower"},
	{Name: "serving.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "replica.appends", Unit: "count", Better: "lower"},
	{Name: "replica.acks", Unit: "count", Better: "lower"},
	{Name: "replica.rewinds", Unit: "count", Better: "lower"},
	{Name: "replica.sync_reqs", Unit: "count", Better: "lower"},
	{Name: "replica.tuples_per_append", Unit: "count", Better: "higher"},
	{Name: "replica.lag_tuples_p50", Unit: "count", Better: "lower"},
	{Name: "consensus.agree_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// recorder collects one run's samples and operation counts. A metric's
// reported value is the median of its samples; counters that make sense only
// per run are added once.
type recorder struct {
	samples   map[string][]float64
	attempted int
	failed    int
	notes     []string
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// op counts one attempted operation (an iteration step, a ladder step).
func (r *recorder) op() { r.attempted++ }

// fail counts one failed operation and keeps why.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// foldCounts adds another recorder's operation counts, dropping its samples
// (the warm-up's).
func (r *recorder) foldCounts(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
}

// value is the reported number for a metric: the median of its samples, 0
// when the workload never touched it.
func (r *recorder) value(name string) float64 { return median(r.samples[name]) }

// print renders the named metrics as an aligned table with sample count,
// median and quartiles.
func (r *recorder) print(w io.Writer, defs []metricDef) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tn\tmedian\tq1\tq3")
	for _, d := range defs {
		s := r.samples[d.Name]
		q1, _, q3 := quartiles(s)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\n", d.Name, d.Unit, len(s), median(s), q1, q3)
	}
	_ = tw.Flush()
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles follows Python's statistics.quantiles(v, n=4), the rule the
// driver applies to the spread between runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	s := sorted(v)
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentile reads the p-quantile (nearest rank) of an unsorted sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[int(p*float64(len(s)-1)+0.5)]
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
