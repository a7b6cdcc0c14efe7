// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; see DESIGN.md's index and EXPERIMENTS.md
// for recorded outputs). Run with:
//
//	go test -bench=. -benchmem
//
// Each iteration performs the complete experiment — workload generation,
// topology discovery, the distributed update to the fix-point, and (where
// the experiment defines it) validation against the centralised baseline —
// so ns/op measures whole-experiment latency at the bench scale
// (RecordsPerNode below; cmd/p2pbench -records 1000 reproduces paper scale).
package p2pdb_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

const benchRecords = 25

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{
		RecordsPerNode: benchRecords,
		Seed:           1,
		Timeout:        5 * time.Minute,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Table == "" {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// BenchmarkE1_PathsTable regenerates the §2 table of maximal dependency
// paths for the running example.
func BenchmarkE1_PathsTable(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2_Figure1Trace regenerates Figure 1's message sequence chart.
func BenchmarkE2_Figure1Trace(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3_TreeDepth regenerates the §5 tree series (time and messages
// vs depth; expect ~linear growth with depth).
func BenchmarkE3_TreeDepth(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4_LayeredDAG regenerates the §5 layered-acyclic-graph series.
func BenchmarkE4_LayeredDAG(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5_Clique regenerates the §5 clique series (super-linear message
// growth from loop re-propagation).
func BenchmarkE5_Clique(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6_Overlap regenerates the §5 data-distribution comparison
// (0% vs 50% neighbour overlap).
func BenchmarkE6_Overlap(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7_DBLP31 regenerates the §5 headline run: 31 nodes, DBLP-like
// records, 3 schemas.
func BenchmarkE7_DBLP31(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8_DynamicFinite regenerates the §4 finite-change experiment
// (termination + Definition 9 bounds).
func BenchmarkE8_DynamicFinite(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9_AsyncVsSync regenerates the asynchronous-vs-synchronous
// comparison (§1/§3).
func BenchmarkE9_AsyncVsSync(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10_Delta regenerates the delta-optimisation ablation (§3).
func BenchmarkE10_Delta(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11_Baseline regenerates the distributed-vs-centralised-vs-
// one-pass comparison.
func BenchmarkE11_Baseline(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12_Separation regenerates the Theorem 3 churn experiment.
func BenchmarkE12_Separation(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13_StagedVsFlood regenerates the topology-aware staged-update
// ablation (§3's optimisation note).
func BenchmarkE13_StagedVsFlood(b *testing.B) { benchExperiment(b, "E13") }

// ---------------------------------------------------------------------------
// Fix-point throughput benchmarks: discovery + update to closure on one
// workload, reporting tuples-inserted/sec. The Delta/Faithful pairs ablate
// the delta optimisation; the delta variants should come out well ahead on
// these data-heavy topologies, where the faithful full re-evaluation per push
// is quadratic in the materialised data.

func benchFixpoint(b *testing.B, topo workload.Topology, records int, delta bool) {
	b.Helper()
	def, err := workload.Generate(topo, workload.DataSpec{
		RecordsPerNode: records, Seed: 1, Style: workload.StyleCopy,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var inserted uint64
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		n, err := core.Build(def, core.Options{Seed: 1, Delta: delta})
		if err != nil {
			cancel()
			b.Fatal(err)
		}
		if err := n.RunToFixpoint(ctx); err != nil {
			_ = n.Close()
			cancel()
			b.Fatal(err)
		}
		inserted += stats.Merge(n.Stats()).TuplesInserted
		_ = n.Close()
		cancel()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(inserted)/secs, "tuples/s")
	}
}

func BenchmarkFixpointChainDelta(b *testing.B) {
	benchFixpoint(b, workload.Chain(8), 150, true)
}

func BenchmarkFixpointChainFaithful(b *testing.B) {
	benchFixpoint(b, workload.Chain(8), 150, false)
}

func BenchmarkFixpointGridDelta(b *testing.B) {
	benchFixpoint(b, workload.Grid(3, 3), 100, true)
}

func BenchmarkFixpointGridFaithful(b *testing.B) {
	benchFixpoint(b, workload.Grid(3, 3), 100, false)
}
