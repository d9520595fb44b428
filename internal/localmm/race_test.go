package localmm

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// TestParallelKernelsRace drives every parallel kernel and merger at high
// thread counts, including several ParallelSpGEMM calls racing each other the
// way concurrent SUMMA ranks do, so `go test -race ./internal/localmm`
// exercises the worker pool, the shared output arrays, and the read-only
// operand sharing. Guarded by -short so the default suite stays fast.
func TestParallelKernelsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	sr := semiring.PlusTimes()
	a := randomMat(t, 300, 300, 4000, 31)
	b := randomMat(t, 300, 300, 4000, 32)
	want := Multiply(a, b, sr)

	for _, k := range allKernels {
		got := ParallelSpGEMM(k, a, b, sr, 8)
		if !spmat.Equal(got, want) {
			t.Errorf("kernel %v: wrong parallel product", k)
		}
	}

	mats := []*spmat.CSC{
		HashSpGEMM(a, b, sr),
		HashSpGEMM(b, a, sr),
		HashSpGEMM(a, a, sr),
	}
	for _, mg := range []Merger{MergerHash, MergerHeap} {
		if got := mg.Merge(mats, sr, true, 8); got.NNZ() == 0 {
			t.Errorf("merger %v: empty parallel merge", mg)
		}
	}

	// Concurrent multiplies over the same operands: ranks inside one
	// simulated MPI job share nothing but read-only inputs and the pooled
	// worker state.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 4)
			if !spmat.Equal(got, want) {
				t.Error("concurrent parallel multiply diverged")
			}
		}()
	}
	wg.Wait()
}

// TestDCSCParallelKernelsRace is the doubly-compressed counterpart of
// TestParallelKernelsRace: the generic two-phase kernels and merges at high
// thread counts over hypersparse DCSC operands (shared read-only views,
// pooled workers, exact-offset shared output arrays), plus concurrent
// multiplies the way SUMMA ranks race. Run under `go test -race`.
func TestDCSCParallelKernelsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	sr := semiring.PlusTimes()
	ac := hyperMat(t, 200, 4096, 3000, 61)
	bc := hyperMat(t, 4096, 4096, 3000, 62)
	a, b := ac.ToDCSC(), bc.ToDCSC()
	want := Multiply(ac, bc, sr)

	for _, k := range allKernels {
		got := MulMat(k, a, b, sr, 8)
		if !spmat.Equal(got.ToCSC(), want) {
			t.Errorf("kernel %v: wrong DCSC parallel product", k)
		}
	}

	b2 := hyperMat(t, 4096, 4096, 2500, 63).ToDCSC()
	mats := []spmat.Matrix{
		MulMat(KernelHashUnsorted, a, b, sr, 8),
		MulMat(KernelHashUnsorted, a, b2, sr, 8),
	}
	for _, mg := range []Merger{MergerHash, MergerHeap} {
		if got := MergeMat(mg, mats, sr, true, 8); got.NNZ() == 0 {
			t.Errorf("merger %v: empty DCSC parallel merge", mg)
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := MulMat(KernelHashUnsorted, a, b, sr, 4)
			if !spmat.Equal(got.ToCSC(), want) {
				t.Error("concurrent DCSC parallel multiply diverged")
			}
			if SymbolicMat(a, b, 4) != want.NNZ() {
				t.Error("concurrent DCSC parallel symbolic diverged")
			}
		}()
	}
	wg.Wait()
}

// identical reports whether two matrices match bit for bit: the same column
// pointers, the same rows in the same order, and the same float64 bits.
func identical(a, b *spmat.CSC) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.SortedCols != b.SortedCols ||
		!slices.Equal(a.ColPtr, b.ColPtr) || !slices.Equal(a.RowIdx, b.RowIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for p := range a.Val {
		if math.Float64bits(a.Val[p]) != math.Float64bits(b.Val[p]) {
			return false
		}
	}
	return true
}

// TestSerialKernelsPooledScratchRace runs many goroutines through the serial
// hash kernels at once. Each call stages its output and sorts its columns in
// a pooled worker's scratch, so a worker shared or returned too early would
// corrupt another call's product; every product must equal the one computed
// before the goroutines start, bit for bit.
func TestSerialKernelsPooledScratchRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	sr := semiring.PlusTimes()
	// Full-precision values, so a changed summation order shows too.
	rng := rand.New(rand.NewSource(70))
	a, b, c := randomMat(t, 200, 200, 3000, 71), randomMat(t, 200, 200, 3000, 72), randomMat(t, 200, 200, 2000, 73)
	for _, m := range []*spmat.CSC{a, b, c} {
		for p := range m.Val {
			m.Val[p] = rng.NormFloat64()
		}
	}
	prods := []*spmat.CSC{HashSpGEMM(a, b, sr), HashSpGEMM(b, c, sr), HashSpGEMM(c, a, sr)}
	wantMul := []*spmat.CSC{prods[0], HashSpGEMMSorted(a, b, sr), HashSpGEMM(b, a, sr)}
	wantMerge := []*spmat.CSC{HashMerge(prods, sr, false), HashMerge(prods, sr, true)}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 2; it++ {
				gotMul := []*spmat.CSC{HashSpGEMM(a, b, sr), HashSpGEMMSorted(a, b, sr), HashSpGEMM(b, a, sr)}
				for i, got := range gotMul {
					if !identical(got, wantMul[i]) {
						t.Errorf("goroutine %d: multiply %d diverged from the serial run", g, i)
					}
				}
				for i, sorted := range []bool{false, true} {
					if got := HashMerge(prods, sr, sorted); !identical(got, wantMerge[i]) {
						t.Errorf("goroutine %d: merge sorted=%v diverged from the serial run", g, sorted)
					}
				}
			}
		}()
	}
	wg.Wait()
}
