// Command p2pbench regenerates every table and figure of the paper's
// evaluation (experiments E1–E13; see DESIGN.md for the index) plus the
// engine ablations that go beyond it (E15: durable backend at each fsync
// policy vs in-memory; E16: batched wire protocol, frames per tuple with and
// without a batch window; E17: replicated control plane, driver kill and
// agreed fail-over recovery; E18: k-way replication, primary kill, mirror
// promotion and the under-replication window; E19: serving fan-out,
// concurrent insert/watch/query load with shared delta extraction).
//
// Usage:
//
//	p2pbench                 # run everything at the default scale
//	p2pbench -e E3,E5        # run selected experiments
//	p2pbench -e E15          # in-memory vs wal fsync always/interval/never
//	p2pbench -e E16          # batched vs unbatched wire protocol
//	p2pbench -e E17          # control-plane driver kill and fail-over
//	p2pbench -e E18          # replication primary kill and mirror promotion
//	p2pbench -e E19          # serve-load: watch fan-out under mixed traffic
//	p2pbench -records 1000   # paper-scale data (~1000 records per node)
//	p2pbench -seed 7
//	p2pbench -json BENCH_$(date +%Y%m%d).json   # machine-readable results
//	p2pbench -e E5 -mpt-ceiling E5=60           # CI regression gate
//	p2pbench -e E19 -p99-ceiling E19=250        # delivery-latency gate
//	p2pbench -e E7 -records 1000 -profile /tmp/p  # /tmp/p/E7/{cpu,heap}.pprof
//
// With -json, every protocol run's metrics (tuples/s, messages, bytes, wall
// time) are written as one JSON document, so successive invocations
// accumulate a BENCH_*.json perf trajectory for the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchDoc is the -json output document.
type benchDoc struct {
	GeneratedAt    string                  `json:"generated_at"`
	RecordsPerNode int                     `json:"records_per_node"`
	Seed           int64                   `json:"seed"`
	Error          string                  `json:"error,omitempty"` // set when the suite aborted: the document is partial
	Experiments    []benchExperiment       `json:"experiments"`
	Runs           []experiments.RunRecord `json:"runs"`
}

type benchExperiment struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Runs  int    `json:"runs"`
}

func main() {
	var (
		ids      = flag.String("e", "all", "comma-separated experiment ids (E1..E13, E15..E19) or 'all'")
		records  = flag.Int("records", 50, "records per node (paper used ~1000)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		timeout  = flag.Duration("timeout", 5*time.Minute, "per-experiment timeout")
		jsonPath = flag.String("json", "", "write machine-readable per-run results to this path")
		ceilings = flag.String("mpt-ceiling", "", "fail when an experiment's worst messages-per-tuple exceeds its limit; comma-separated ID=limit (e.g. E5=60)")
		profDir  = flag.String("profile", "", "write DIR/<id>/cpu.pprof and a post-GC DIR/<id>/heap.pprof for each selected experiment")
		p99s     = flag.String("p99-ceiling", "", "fail when an experiment's worst p99 delivery latency (ms) exceeds its limit; comma-separated ID=limit (e.g. E19=250)")
	)
	flag.Parse()

	limits, lerr := parseCeilings(*ceilings)
	if lerr != nil {
		fmt.Fprintf(os.Stderr, "p2pbench: %v\n", lerr)
		os.Exit(2)
	}
	p99Limits, lerr := parseCeilings(*p99s)
	if lerr != nil {
		fmt.Fprintf(os.Stderr, "p2pbench: %v\n", lerr)
		os.Exit(2)
	}

	cfg := experiments.Config{RecordsPerNode: *records, Seed: *seed, Timeout: *timeout}

	selected := experiments.IDs()
	if *ids != "all" {
		selected = strings.Split(*ids, ",")
	}
	var results []experiments.Result
	var err error
	for _, id := range selected {
		id = strings.TrimSpace(id)
		var r experiments.Result
		if *profDir == "" {
			r, err = experiments.Run(id, cfg)
		} else {
			r, err = runProfiled(filepath.Join(*profDir, strings.ToUpper(id)), id, cfg)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", id, err)
			break
		}
		results = append(results, r)
	}
	for _, r := range results {
		fmt.Printf("== %s — %s ==\n\n%s\n", r.ID, r.Title, r.Table)
	}
	if *jsonPath != "" {
		if werr := writeJSON(*jsonPath, cfg, results, err); werr != nil {
			fmt.Fprintf(os.Stderr, "p2pbench: %v\n", werr)
			os.Exit(1)
		}
		if err != nil {
			fmt.Printf("PARTIAL machine-readable results written to %s (error recorded in the document)\n", *jsonPath)
		} else {
			fmt.Printf("machine-readable results written to %s\n", *jsonPath)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "p2pbench: %v\n", err)
		os.Exit(1)
	}
	if err := checkCeilings(limits, results); err != nil {
		fmt.Fprintf(os.Stderr, "p2pbench: %v\n", err)
		os.Exit(1)
	}
	if err := checkP99Ceilings(p99Limits, results); err != nil {
		fmt.Fprintf(os.Stderr, "p2pbench: %v\n", err)
		os.Exit(1)
	}
}

// runProfiled runs one experiment under the CPU profiler and writes
// dir/cpu.pprof and, after a forced collection, dir/heap.pprof.
func runProfiled(dir, id string, cfg experiments.Config) (experiments.Result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return experiments.Result{}, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return experiments.Result{}, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return experiments.Result{}, err
	}
	res, runErr := experiments.Run(id, cfg)
	pprof.StopCPUProfile()
	if err := cpu.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return res, runErr
	}
	heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return res, err
	}
	runtime.GC() // the heap profile reports the state as of the last collection
	if err := pprof.WriteHeapProfile(heap); err != nil {
		heap.Close()
		return res, err
	}
	return res, heap.Close()
}

// parseCeilings parses the -mpt-ceiling flag ("E5=60,E16=1.5").
func parseCeilings(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, lim, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" {
			return nil, fmt.Errorf("bad -mpt-ceiling entry %q (want ID=limit)", part)
		}
		v, err := strconv.ParseFloat(lim, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -mpt-ceiling limit %q (want a positive number)", lim)
		}
		out[strings.ToUpper(id)] = v
	}
	return out, nil
}

// checkCeilings enforces the messages-per-tuple regression gate: the worst
// run of each gated experiment must stay under its checked-in ceiling. The
// metric counts wire frames per inserted tuple, so an accidental return to
// per-tuple messaging (or a batching regression) fails CI loudly instead of
// drifting into the perf trajectory.
func checkCeilings(limits map[string]float64, results []experiments.Result) error {
	for _, r := range results {
		lim, gated := limits[strings.ToUpper(r.ID)]
		if !gated {
			continue
		}
		worst := 0.0
		for _, run := range r.Runs {
			if run.MsgsPerTuple > worst {
				worst = run.MsgsPerTuple
			}
		}
		if worst > lim {
			return fmt.Errorf("%s: messages-per-tuple regressed: worst run %.2f exceeds ceiling %.2f", r.ID, worst, lim)
		}
		fmt.Printf("%s messages-per-tuple ceiling ok: worst run %.2f <= %.2f\n", r.ID, worst, lim)
	}
	return nil
}

// checkP99Ceilings enforces the delivery-latency regression gate: the worst
// p99 insert → watcher latency of each gated experiment must stay under its
// checked-in ceiling, so a serving-path regression (a stalled pump, an
// accidental per-watcher extraction) fails CI loudly.
func checkP99Ceilings(limits map[string]float64, results []experiments.Result) error {
	for _, r := range results {
		lim, gated := limits[strings.ToUpper(r.ID)]
		if !gated {
			continue
		}
		worst := 0.0
		for _, run := range r.Runs {
			if run.DeliveryP99MS > worst {
				worst = run.DeliveryP99MS
			}
		}
		if worst > lim {
			return fmt.Errorf("%s: p99 delivery latency regressed: worst run %.2fms exceeds ceiling %.2fms", r.ID, worst, lim)
		}
		fmt.Printf("%s p99 delivery-latency ceiling ok: worst run %.2fms <= %.2fms\n", r.ID, worst, lim)
	}
	return nil
}

func writeJSON(path string, cfg experiments.Config, results []experiments.Result, runErr error) error {
	doc := benchDoc{
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		RecordsPerNode: cfg.RecordsPerNode,
		Seed:           cfg.Seed,
	}
	if runErr != nil {
		doc.Error = runErr.Error()
	}
	for _, r := range results {
		doc.Experiments = append(doc.Experiments, benchExperiment{ID: r.ID, Title: r.Title, Runs: len(r.Runs)})
		doc.Runs = append(doc.Runs, r.Runs...)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
