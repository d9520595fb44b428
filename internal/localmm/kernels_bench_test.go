package localmm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// uniformMat builds a matrix with exactly perCol nonzeros in every column
// (distinct random rows), so A·B has a controlled flops-per-column:
// multiplying two uniform matrices with column degrees dA and dB yields
// dA·dB flops per output column. That lets the crossover benchmark place
// workloads on either side of the heap↔hash regime boundary precisely.
func uniformMat(tb testing.TB, rows, cols int32, perCol int, seed int64) *spmat.CSC {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, int(cols)*perCol)
	for j := int32(0); j < cols; j++ {
		for _, r := range rng.Perm(int(rows))[:perCol] {
			ts = append(ts, spmat.Triple{Row: int32(r), Col: j, Val: rng.Float64() + 0.5})
		}
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkHashSpGEMMParallel is the thread sweep of the unsorted-hash
// kernel — the paper's Figure-2-style scaling of the local multiply. Results
// are recorded in BENCH_kernels.json (make bench-kernels).
func BenchmarkHashSpGEMMParallel(b *testing.B) {
	a := randomMat(b, 4096, 4096, 120000, 91)
	sr := semiring.PlusTimes()
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ParallelSpGEMM(KernelHashUnsorted, a, a, sr, threads)
			}
		})
	}
}

// BenchmarkKernelCrossover measures heap vs hash vs hybrid on both sides of
// the heap↔hash regime boundary Azad et al. (arXiv 1510.00844) report, about
// 64 flops per column. Where the real crossover sits on a given host depends
// on its memory system, so this benchmark records the measured regime
// picture that BENCH_kernels.json snapshots for the runner. It is the
// evidence for running the unsorted hash kernel everywhere: the snapshot
// has it fastest at every density from 4 to 1024 flops per column. Column
// degrees are uniform, making flops/col = dA·dB exact.
func BenchmarkKernelCrossover(b *testing.B) {
	sr := semiring.PlusTimes()
	shapes := []struct {
		name     string
		dA, dB   int
		rows     int32
		flopsCol int
	}{
		{"hypersparse", 2, 2, 8192, 4}, // far below the reported crossover
		{"sparse", 4, 4, 4096, 16},     // below it
		{"boundary", 8, 8, 2048, 64},   // at the reported meeting point
		{"dense", 32, 32, 1024, 1024},  // far above it
	}
	kernels := []Kernel{KernelHeap, KernelHashUnsorted, KernelHybrid}
	for _, sh := range shapes {
		a := uniformMat(b, sh.rows, sh.rows, sh.dA, 92)
		bm := uniformMat(b, sh.rows, sh.rows, sh.dB, 93)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s-%dflops-per-col/%v", sh.name, sh.flopsCol, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ParallelSpGEMM(k, a, bm, sr, 1)
				}
			})
		}
	}
}
