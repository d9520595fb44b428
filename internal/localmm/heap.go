package localmm

import (
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// heapEntry tracks one contributing column of A during the multiway merge:
// the current row index, which list (entry of B's column) it belongs to, and
// the cursor into that A column.
type heapEntry struct {
	row  int32
	list int32
	ptr  int64
}

// rowHeap is a binary min-heap on (row, list). A hand-rolled heap avoids the
// interface indirection of container/heap in this hot loop. The list
// tie-break makes same-row contributions pop in operand order — exactly the
// order the hash accumulator adds them — so heap- and hash-based paths
// produce bit-identical float64 values, not merely equal structure: the
// kernel and merger knobs are speed attribution only, and the differential
// suites hold them to exact equality.
type rowHeap []heapEntry

// heapLess orders entries by row, ties by list (operand) index.
func heapLess(a, b heapEntry) bool {
	if a.row != b.row {
		return a.row < b.row
	}
	return a.list < b.list
}

func (h *rowHeap) push(e heapEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *rowHeap) pop() heapEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && heapLess(old[l], old[small]) {
			small = l
		}
		if r < n && heapLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// HeapSpGEMM multiplies A·B with the heap-based column kernel used by the
// previous 3D SUMMA work [13]. It requires A to have sorted columns and
// always produces sorted output columns — the sortedness the paper's new
// kernels deliberately give up.
func HeapSpGEMM(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	checkMulShapes(a, b)
	if !a.SortedCols {
		// The previous framework kept all matrices sorted; when handed an
		// unsorted operand we must restore that invariant first, and the cost
		// is charged to this kernel just as it would be in the original code.
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
		w.rows, w.vals = heapMulColumn(&w.heap, a, bRows, bVals, sr, plusTimes, w.rows, w.vals)
		c.ColPtr[j+1] = int64(len(w.rows))
	}
	w.outputTo(c)
	return c
}
