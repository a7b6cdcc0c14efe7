// Command benchmark is the repository's performance gate. One run measures
// one workload for a fixed number of seconds, checks every output against
// the centralised referee (or the inserted set), and prints every metric by
// name and unit; the last line of standard output is the result as one JSON
// object. With -trace 1 the same workload runs under a transport decorator
// and replay probes and reports the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one run's sizing.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool   // tiny sizing for the package's own test
	dir     string // scratch directory inside the checkout: DataDirs, span file
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// env is what a workload runs against.
type env struct {
	cfg   runConfig
	rec   *recorder
	trace *traceLog
	log   io.Writer
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(ctx context.Context, e *env) error
}

var workloads = []workloadDef{
	{
		Name: "dblp-mem",
		Why:  "paper's 31-node tree over Mem: cq, relalg, storage and peer do all the work; wire, wal, Batcher and TCP do none",
		run:  func(ctx context.Context, e *env) error { return runBulk(ctx, e, dblpMem(e.cfg.smoke)) },
	},
	{
		Name: "clique-tcp-wal",
		Why:  "4-clique over TCP with batching and a WAL, then crash and recovery: codec, Batcher, durable acks, WAL append and replay dominate",
		run:  func(ctx context.Context, e *env) error { return runBulk(ctx, e, cliqueTCPWAL(e.cfg.smoke)) },
	},
	{
		Name: "live-fanout",
		Why:  "open-loop single-tuple inserts through a 3-member chain to 16 remote watchers: batch window and serving fan-out set latency",
		run:  runLive,
	},
	{
		Name: "replica-ship",
		Why:  "3 members with control plane and K=2 mirrors, bulk inserts, no rules fired: the only workload where replica and consensus run",
		run:  runReplica,
	},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is a result with what produced it, one line of an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: dblp-mem, clique-tcp-wal, live-fanout, replica-ship or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 25, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs under the tracer and reports the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny sizing, a few seconds for all workloads")
	out := fs.String("out", "", "append each run's result to this file as a JSON line (input of -compare)")
	scratch := fs.String("dir", ".bench_build", "scratch directory for DataDirs and the span file")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}

	var chosen []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.Name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	code := 0
	for _, w := range chosen {
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}
		rec, err := runOne(w, cfg, *scratch, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		if !rec.Correct {
			code = 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	}
	return code
}

// runOne runs one workload once and prints its metric table followed by the
// result line.
func runOne(w workloadDef, cfg runConfig, scratch string, stdout io.Writer) (runRecord, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return runRecord{}, err
	}
	dir, err := os.MkdirTemp(scratch, w.Name+"-")
	if err != nil {
		return runRecord{}, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	e := &env{cfg: cfg, rec: newRecorder(), trace: &traceLog{}, log: stdout}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	fmt.Fprintf(stdout, "== %s  seed=%d seconds=%g trace=%v\n", w.Name, cfg.seed, cfg.seconds, cfg.trace)
	if err := w.run(ctx, e); err != nil {
		return runRecord{}, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		spans := filepath.Join(scratch, "spans-"+w.Name+".jsonl")
		if err := e.trace.finish(e.rec, spans); err != nil {
			return runRecord{}, err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(e.trace.spans), spans)
	}
	e.rec.print(stdout, defs)
	for _, note := range e.rec.notes {
		fmt.Fprintln(stdout, "FAILED:", note)
	}
	rec := runRecord{Workload: w.Name, Seed: cfg.seed, Trace: cfg.trace, result: result{
		Correct:   e.rec.failed == 0,
		Attempted: e.rec.attempted,
		Failed:    e.rec.failed,
		Metrics:   map[string]metricValue{},
	}}
	for _, d := range defs {
		if !cfg.trace && len(e.rec.samples[d.Name]) == 0 {
			return runRecord{}, fmt.Errorf("no sample of end-to-end metric %s", d.Name)
		}
		rec.Metrics[d.Name] = metricValue{Value: e.rec.value(d.Name), Unit: d.Unit}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return runRecord{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec, nil
}

func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
