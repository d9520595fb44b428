package localmm

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// checkMergeShapes verifies all operands share one shape and returns it.
func checkMergeShapes(mats []*spmat.CSC) (rows, cols int32) {
	if len(mats) == 0 {
		panic("localmm: merge of zero matrices")
	}
	rows, cols = mats[0].Rows, mats[0].Cols
	for _, m := range mats {
		if m.Rows != rows || m.Cols != cols {
			panic(fmt.Sprintf("localmm: merge shape mismatch %v vs %dx%d", m, rows, cols))
		}
	}
	return rows, cols
}

// HashMerge adds a collection of same-shaped matrices entry-wise using a hash
// accumulator per column. It accepts unsorted inputs and produces unsorted
// output unless sortOutput is set (the final Merge-Fiber sorts; Merge-Layer
// does not). This is the paper's new "unsorted-hash-merge" (Sec. IV-D),
// reported an order of magnitude faster than heap merging.
func HashMerge(mats []*spmat.CSC, sr *semiring.Semiring, sortOutput bool) *spmat.CSC {
	rows, cols := checkMergeShapes(mats)
	if len(mats) == 1 {
		out := mats[0].Clone()
		if sortOutput {
			out.SortColumns()
		}
		return out
	}
	c := &spmat.CSC{
		Rows:       rows,
		Cols:       cols,
		ColPtr:     make([]int64, cols+1),
		SortedCols: sortOutput,
	}
	plusTimes := sr.IsPlusTimes()
	w := getWorker()
	defer putWorker(w)
	for j := int32(0); j < cols; j++ {
		var colNNZ int64
		for _, m := range mats {
			colNNZ += m.ColNNZ(j)
		}
		if colNNZ > 0 {
			acc := w.accFor(colNNZ)
			hashAccumulateMergeColumn(acc, mats, j, sr, plusTimes)
			lo := len(w.rows)
			w.rows, w.vals = acc.drainInto(w.rows, w.vals)
			if sortOutput {
				sortColumnSlices(w.rows[lo:], w.vals[lo:], &w.sort)
			}
		}
		c.ColPtr[j+1] = int64(len(w.rows))
	}
	w.outputTo(c)
	return c
}

// hashAccumulateMergeColumn feeds column j of every operand into acc: the
// shared inner loop of HashMerge and the parallel hash merge.
func hashAccumulateMergeColumn(acc *hashAccum, mats []*spmat.CSC, j int32, sr *semiring.Semiring, plusTimes bool) {
	for _, m := range mats {
		rws, vls := m.Column(j)
		if plusTimes {
			for p := range rws {
				acc.addPlus(rws[p], vls[p])
			}
		} else {
			for p := range rws {
				acc.add(rws[p], vls[p], sr.Add)
			}
		}
	}
}

// HeapMerge adds a collection of same-shaped matrices entry-wise with a
// k-way heap merge per column, the merging algorithm of the previous 2D/3D
// SUMMA implementations [30, 13]. Inputs must be sorted; unsorted operands
// are sorted first and that cost is charged here, exactly the overhead the
// sort-free pipeline avoids. Output columns are sorted.
func HeapMerge(mats []*spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	rows, cols := checkMergeShapes(mats)
	sorted := make([]*spmat.CSC, len(mats))
	for i, m := range mats {
		if m.SortedCols {
			sorted[i] = m
		} else {
			cp := m.Clone()
			cp.SortColumns()
			sorted[i] = cp
		}
	}
	c := &spmat.CSC{
		Rows:       rows,
		Cols:       cols,
		ColPtr:     make([]int64, cols+1),
		SortedCols: true,
	}
	plusTimes := sr.IsPlusTimes()
	w := getWorker()
	defer putWorker(w)
	for j := int32(0); j < cols; j++ {
		w.rows, w.vals = heapMergeColumn(&w.heap, sorted, j, sr, plusTimes, w.rows, w.vals)
		c.ColPtr[j+1] = int64(len(w.rows))
	}
	w.outputTo(c)
	return c
}

// Note: a sorted input can still contain duplicate row indices within a
// column (e.g. the concatenated outputs of independent SUMMA stages). Both
// merge algorithms accumulate those duplicates, so their outputs are always
// duplicate-free.
