package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readRecords loads an -out file: one run per line.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// verdict judges B against A for one metric of one workload. The medians
// are compared against the metric's fixed bound; when either side's own runs
// spread wider than the bound, the pair cannot be resolved.
func verdict(def metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	if spread(a) > def.Bound || spread(b) > def.Bound {
		return "unresolved"
	}
	change := ratio(median(b)-median(a), median(a))
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case change > def.Bound:
		return "worse"
	case change < -def.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric: both
// sides' medians and quartiles over their runs, the bound, and the verdict.
// It exits 1 when any pair is worse or a run was incorrect.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	var sides [2][]runRecord
	for i, path := range []string{pathA, pathB} {
		runs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		sides[i] = runs
	}
	return compareRuns(stdout, sides[0], sides[1])
}

func compareRuns(stdout io.Writer, a, b []runRecord) int {
	values := func(runs []runRecord, workload, metric string) (v []float64, failed int) {
		for _, r := range runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			failed += r.Failed
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
		return v, failed
	}
	code := 0
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA n\tA median\tA q1\tA q3\tB n\tB median\tB q1\tB q3\tbound\tverdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, fa := values(a, w.Name, d.Name)
			vb, fb := values(b, w.Name, d.Name)
			v := verdict(d, va, vb)
			if fa+fb > 0 {
				v = "failed" // a failed operation misses every limit
			}
			if v == "worse" || v == "failed" {
				code = 1
			}
			a1, _, a3 := quartiles(va)
			b1, _, b3 := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.5g\t%.5g\t%.5g\t%d\t%.5g\t%.5g\t%.5g\t%.2f\t%s\n",
				w.Name, d.Name, d.Unit, len(va), median(va), a1, a3, len(vb), median(vb), b1, b3, d.Bound, v)
		}
	}
	_ = tw.Flush()
	return code
}
