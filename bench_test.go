// Benchmarks regenerating the paper's evaluation artifacts: one benchmark per
// table and figure (BenchmarkFigNN / BenchmarkTableNN run the corresponding
// experiment at tiny scale and report its key metric), plus ablation
// micro-benchmarks for the design choices DESIGN.md calls out (kernel
// generations, merge strategy, batch splitting, hash sizing).
//
// Run with: go test -bench=. -benchmem
package spgemm_test

import (
	"fmt"
	"io"
	"testing"

	spgemm "repro"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// benchExperiment runs a registered experiment end to end at tiny scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.RunOpts{Scale: experiments.ScaleTiny, Machine: costmodel.CoriKNL()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per evaluation artifact.

func BenchmarkTable02CommComplexity(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable03CompComplexity(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable05MatrixStats(b *testing.B)       { benchExperiment(b, "table5") }
func BenchmarkTable06LayerBatchImpact(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable07KernelGenerations(b *testing.B) { benchExperiment(b, "table7") }
func BenchmarkFig03HipMCLIterations(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig04LayerBatchSweep(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig05ABcastVsLayers(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig06StrongScalingSmall(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig07StrongScalingBig(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig08SymbolicStep(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig09ParallelEfficiency(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10AATMetaclust(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11AATRiceKmers(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12HyperThreading(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13KNLvsHaswell(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14SmallMatrixLowProc(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15KernelAblation(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkPlannerVsOracle(b *testing.B)          { benchExperiment(b, "planner") }

// --- Ablation 1: local SpGEMM kernel generations (Fig 15 / Table VII). ---

func benchKernel(b *testing.B, k localmm.Kernel) {
	b.Helper()
	a := genmat.ProteinSimilarity(10, 8, 7)
	sr := semiring.PlusTimes()
	fn := k.Func()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(a, a, sr, 1)
	}
	b.ReportMetric(float64(localmm.Flops(a, a)), "flops/op")
}

func BenchmarkKernelHashUnsorted(b *testing.B) { benchKernel(b, localmm.KernelHashUnsorted) }
func BenchmarkKernelHashSorted(b *testing.B)   { benchKernel(b, localmm.KernelHashSorted) }
func BenchmarkKernelHeap(b *testing.B)         { benchKernel(b, localmm.KernelHeap) }
func BenchmarkKernelHybrid(b *testing.B)       { benchKernel(b, localmm.KernelHybrid) }

// --- Ablation 1b: thread sweep of the two-phase parallel hash kernel
// (Sec. IV-D runs 16 threads per process; on a multi-core runner threads=8
// should beat threads=1 by well over 1.5x on this workload). ---

func BenchmarkHashSpGEMMParallel(b *testing.B) {
	a := genmat.ProteinSimilarity(11, 8, 7)
	sr := semiring.PlusTimes()
	flops := float64(localmm.Flops(a, a))
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportMetric(flops, "flops/op")
			for i := 0; i < b.N; i++ {
				localmm.ParallelSpGEMM(localmm.KernelHashUnsorted, a, a, sr, threads)
			}
		})
	}
}

// --- Ablation 2: merge algorithms on sorted vs unsorted inputs. ---

func mergeInputs(sorted bool) []*spmat.CSC {
	a := genmat.ProteinSimilarity(9, 8, 8)
	sr := semiring.PlusTimes()
	mats := make([]*spmat.CSC, 4)
	for i := range mats {
		s := genmat.Permutation(a.Rows, int64(i+1))
		if sorted {
			mats[i] = localmm.HashSpGEMMSorted(a, s, sr)
		} else {
			mats[i] = localmm.HashSpGEMM(a, s, sr)
		}
	}
	return mats
}

func BenchmarkMergeHashUnsortedInputs(b *testing.B) {
	mats := mergeInputs(false)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.HashMerge(mats, sr, false)
	}
}

func BenchmarkMergeHashSortedOutput(b *testing.B) {
	mats := mergeInputs(false)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.HashMerge(mats, sr, true)
	}
}

func BenchmarkMergeHeapUnsortedInputs(b *testing.B) {
	// The previous pipeline pays the sort inside the merge.
	mats := mergeInputs(false)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.HeapMerge(mats, sr)
	}
}

func BenchmarkMergeHeapSortedInputs(b *testing.B) {
	mats := mergeInputs(true)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.HeapMerge(mats, sr)
	}
}

// --- Ablation 3: merging per stage vs after all stages (Sec. III-A). ---

func BenchmarkMergeOnceAfterAllStages(b *testing.B) {
	a := genmat.ProteinSimilarity(9, 8, 9)
	sr := semiring.PlusTimes()
	stages := spmat.ColSplit(a, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := make([]*spmat.CSC, len(stages))
		for s, piece := range stages {
			parts[s] = localmm.HashSpGEMM(piece, spmat.RowRange(a, int32(s)*a.Rows/4, (int32(s)+1)*a.Rows/4), sr)
		}
		localmm.HashMerge(parts, sr, false)
	}
}

func BenchmarkMergeIncrementallyPerStage(b *testing.B) {
	a := genmat.ProteinSimilarity(9, 8, 9)
	sr := semiring.PlusTimes()
	stages := spmat.ColSplit(a, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc *spmat.CSC
		for s, piece := range stages {
			prod := localmm.HashSpGEMM(piece, spmat.RowRange(a, int32(s)*a.Rows/4, (int32(s)+1)*a.Rows/4), sr)
			if acc == nil {
				acc = prod
			} else {
				acc = localmm.HashMerge([]*spmat.CSC{acc, prod}, sr, false)
			}
		}
	}
}

// --- Ablation 4: block vs block-cyclic batch splitting (Sec. IV-B). ---

func BenchmarkBatchSplitBlock(b *testing.B) {
	a := genmat.ProteinSimilarity(10, 8, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmat.ColSplit(a, 8)
	}
}

// --- Ablation 5: symbolic estimate vs numeric multiply cost (Fig 8). ---

func BenchmarkSymbolicEstimate(b *testing.B) {
	a := genmat.ProteinSimilarity(10, 8, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.SymbolicSpGEMM(a, a)
	}
}

func BenchmarkNumericMultiply(b *testing.B) {
	a := genmat.ProteinSimilarity(10, 8, 11)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.HashSpGEMM(a, a, sr)
	}
}

// --- Ablation 6: distributed multiply across layer counts. ---

func benchDistributed(b *testing.B, p, l, batches int) {
	b.Helper()
	a := genmat.ProteinSimilarity(9, 8, 12)
	cluster := spgemm.NewCluster(p, l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cluster.Multiply(a, a, spgemm.Options{Batches: batches}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributed2D_P16(b *testing.B)        { benchDistributed(b, 16, 1, 1) }
func BenchmarkDistributed3D_P16L4(b *testing.B)      { benchDistributed(b, 16, 4, 1) }
func BenchmarkDistributedBatched_P16L4(b *testing.B) { benchDistributed(b, 16, 4, 4) }

// --- Ablation: pipelined vs staged SUMMA schedule. The pipelined schedule
// posts stage s+1's broadcasts before stage s's local multiply, so part of
// the modeled broadcast cost hides behind measured compute. The reported
// metrics expose the overlap: hidden-comm-s must be > 0 with the pipeline on
// (stage s+1's broadcasts demonstrably issued before stage s's multiply
// completed) and 0 with it off, while model-total-s — the paper's
// critical-path estimate — shrinks by exactly the hidden share. ---

func benchPipeline(b *testing.B, pipeline bool) {
	b.Helper()
	a := genmat.ProteinSimilarity(9, 8, 12)
	cluster := spgemm.NewCluster(16, 4)
	opts := spgemm.Options{Batches: 2, MeasureSymbolic: true, Pipeline: pipeline}
	var total, hidden float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := cluster.Multiply(a, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		total += stats.TotalSeconds
		hidden += stats.HiddenCommSeconds
	}
	b.ReportMetric(total/float64(b.N), "model-total-s")
	b.ReportMetric(hidden/float64(b.N), "hidden-comm-s")
}

func BenchmarkSUMMAStaged(b *testing.B)    { benchPipeline(b, false) }
func BenchmarkSUMMAPipelined(b *testing.B) { benchPipeline(b, true) }

// --- End-to-end application benchmarks. ---

func BenchmarkAppTriangleCount(b *testing.B) {
	adj := genmat.RMAT(genmat.RMATConfig{Scale: 9, EdgeFactor: 8, Symmetrize: true, Seed: 13})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgemm.TriangleCount(adj, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppOverlapPairs(b *testing.B) {
	reads := spgemm.RandomKmerMatrix(256, 8192, 16, 0.3, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgemm.OverlapPairs(reads, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppMarkovCluster(b *testing.B) {
	a := spgemm.RandomProteinNetwork(8, 8, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgemm.MarkovCluster(a, spgemm.MCLConfig{MaxIter: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
