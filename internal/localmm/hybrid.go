package localmm

import (
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// hybridHeapThreshold is the per-column flop count below which the hybrid
// kernel prefers the heap: for short columns (low compression ratio) the heap
// beats hash-table setup, mirroring the policy of Nagasaka et al. [25].
const hybridHeapThreshold = 64

// HybridSpGEMM multiplies A·B with the prior state-of-the-art hybrid kernel
// [25]: per output column it chooses the heap (small flop count / low
// compression) or a hash table, and always sorts the finished column. This is
// the "previous hybrid" baseline the paper's unsorted-hash kernel is measured
// against (Sec. IV-D reports unsorted-hash 30–50% faster).
func HybridSpGEMM(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	checkMulShapes(a, b)
	if !a.SortedCols {
		a = a.Clone()
		a.SortColumns()
	}
	c := &spmat.CSC{
		Rows:       a.Rows,
		Cols:       b.Cols,
		ColPtr:     make([]int64, b.Cols+1),
		SortedCols: true,
	}
	plusTimes := sr.IsPlusTimes()
	w := getWorker()
	defer putWorker(w)
	for j := int32(0); j < b.Cols; j++ {
		bRows, bVals := b.Column(j)
		var colFlops int64
		for _, i := range bRows {
			colFlops += a.ColNNZ(i)
		}
		switch {
		case colFlops == 0:
		case colFlops <= hybridHeapThreshold:
			// Heap path: multiway merge, output already sorted.
			w.rows, w.vals = heapMulColumn(&w.heap, a, bRows, bVals, sr, plusTimes, w.rows, w.vals)
		default:
			// Hash path, followed by the per-column sort the hybrid kernel
			// always performed.
			acc := w.accFor(colFlops)
			hashAccumulateColumn(acc, a, bRows, bVals, sr, plusTimes)
			lo := len(w.rows)
			w.rows, w.vals = acc.drainInto(w.rows, w.vals)
			sortColumnSlices(w.rows[lo:], w.vals[lo:], &w.sort)
		}
		c.ColPtr[j+1] = int64(len(w.rows))
	}
	w.outputTo(c)
	return c
}
