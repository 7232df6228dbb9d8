package cliqueapsp

import (
	"context"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/experiments"
)

// The benchmarks wrap the experiment harness: one benchmark per experiment
// table and figure (`ccbench -list` prints the index; regenerate the full
// sweeps with cmd/ccbench).
// Reported ns/op is the cost of one full experiment at the bench sizes.

func benchSuite() experiments.Suite {
	return experiments.Suite{Quick: true, Seed: 1, Sizes: []int{48, 64}}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		table, err := experiments.ByID(id, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// BenchmarkT1Theorem11 regenerates T1: Theorem 1.1 vs the CZ22 and exact
// baselines.
func BenchmarkT1Theorem11(b *testing.B) { benchExperiment(b, "t1") }

// BenchmarkT2Tradeoff regenerates T2: the Theorem 1.2 round/approximation
// tradeoff.
func BenchmarkT2Tradeoff(b *testing.B) { benchExperiment(b, "t2") }

// BenchmarkT3Hopset regenerates T3: Lemma 3.2 hopset hop radii.
func BenchmarkT3Hopset(b *testing.B) { benchExperiment(b, "t3") }

// BenchmarkT4KNearest regenerates T4: Lemma 5.1/5.2 k-nearest computation.
func BenchmarkT4KNearest(b *testing.B) { benchExperiment(b, "t4") }

// BenchmarkT5Skeleton regenerates T5: Lemma 3.4/6.1 skeleton graphs.
func BenchmarkT5Skeleton(b *testing.B) { benchExperiment(b, "t5") }

// BenchmarkT6Scaling regenerates T6: the Lemma 8.1 weight scaling family.
func BenchmarkT6Scaling(b *testing.B) { benchExperiment(b, "t6") }

// BenchmarkT7Spanner regenerates T7: Lemma 7.1 spanner tradeoffs.
func BenchmarkT7Spanner(b *testing.B) { benchExperiment(b, "t7") }

// BenchmarkT8Reduction regenerates T8: the Lemma 3.1 factor reduction step.
func BenchmarkT8Reduction(b *testing.B) { benchExperiment(b, "t8") }

// BenchmarkT9ZeroWeights regenerates T9: the Theorem 2.1 reduction.
func BenchmarkT9ZeroWeights(b *testing.B) { benchExperiment(b, "t9") }

// BenchmarkF1RoundGrowth regenerates F1: rounds versus n per algorithm.
func BenchmarkF1RoundGrowth(b *testing.B) { benchExperiment(b, "f1") }

// BenchmarkF2Frontier regenerates F2: the approximation/rounds frontier.
func BenchmarkF2Frontier(b *testing.B) { benchExperiment(b, "f2") }

// BenchmarkA1HopsetAblation regenerates A1: k-nearest with vs without a
// hopset.
func BenchmarkA1HopsetAblation(b *testing.B) { benchExperiment(b, "a1") }

// BenchmarkA2ScaleDedup regenerates A2: weight-scaling deduplication.
func BenchmarkA2ScaleDedup(b *testing.B) { benchExperiment(b, "a2") }

// BenchmarkA3BandwidthRegime regenerates A3: the two Theorem 7.1 bandwidth
// regimes.
func BenchmarkA3BandwidthRegime(b *testing.B) { benchExperiment(b, "a3") }

// BenchmarkPipelineConstant measures one end-to-end Theorem 1.1 run through
// the public API (the per-run cost a library user pays).
func BenchmarkPipelineConstant(b *testing.B) {
	g := RandomGraph(96, 40, 3)
	eng := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineLogApprox measures the CZ22 baseline through the public
// API.
func BenchmarkPipelineLogApprox(b *testing.B) {
	g := RandomGraph(96, 40, 3)
	eng := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), g, WithAlgorithm(AlgLogApprox), WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineExact measures the algebraic exact baseline through the
// public API.
func BenchmarkPipelineExact(b *testing.B) {
	g := RandomGraph(96, 40, 3)
	eng := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), g, WithAlgorithm(AlgExact)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4Determinism regenerates A4: randomized vs deterministic
// hitting sets.
func BenchmarkA4Determinism(b *testing.B) { benchExperiment(b, "a4") }

// BenchmarkP1PhaseBreakdown regenerates P1: the per-phase round budget of
// the Theorem 1.1 pipeline.
func BenchmarkP1PhaseBreakdown(b *testing.B) { benchExperiment(b, "p1") }

// BenchmarkA5KNearestMethods regenerates A5: the paper's k-nearest method
// vs the CDKL21 filtered-squaring approach.
func BenchmarkA5KNearestMethods(b *testing.B) { benchExperiment(b, "a5") }
