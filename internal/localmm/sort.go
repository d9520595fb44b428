package localmm

import (
	"slices"

	"repro/internal/spmat"
)

// insertionSortMax is the longest column sortColumnSlices sorts in place by
// insertion; longer columns take the packed-key sort.
const insertionSortMax = 32

// sortScratch is the reusable key and value storage of the packed-key column
// sort.
type sortScratch struct {
	keys []uint64
	vals []float64
}

// sortColumnSlices sorts the parallel (rows, vals) slices of one column by
// ascending row index. Rows within a column are distinct, so the sorted order
// is unique: short columns use insertion sort, long ones sort packed
// uint64(row)<<32 | position keys with slices.Sort and gather the values
// through s's scratch once. Equal rows (never produced by the kernels) would
// keep their input order.
func sortColumnSlices(rows []int32, vals []float64, s *sortScratch) {
	n := len(rows)
	if n <= insertionSortMax {
		for i := 1; i < n; i++ {
			r, v := rows[i], vals[i]
			k := i
			for ; k > 0 && rows[k-1] > r; k-- {
				rows[k], vals[k] = rows[k-1], vals[k-1]
			}
			rows[k], vals[k] = r, v
		}
		return
	}
	if slices.IsSorted(rows) {
		return
	}
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.vals = make([]float64, n)
	}
	keys, old := s.keys[:n], s.vals[:n]
	for p, r := range rows {
		keys[p] = uint64(r)<<32 | uint64(p)
	}
	copy(old, vals)
	slices.Sort(keys)
	for p, key := range keys {
		rows[p] = int32(key >> 32)
		vals[p] = old[uint32(key)]
	}
}

// SortColumns sorts every column of m by row index with the typed column
// sort and marks it sorted. Rows within each column must be distinct, as
// every kernel and merger output's are; use spmat's SortColumns for input
// that may carry duplicates.
func SortColumns(m *spmat.CSC) {
	if m.SortedCols {
		return
	}
	w := getWorker()
	defer putWorker(w)
	for j := int32(0); j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		sortColumnSlices(m.RowIdx[lo:hi], m.Val[lo:hi], &w.sort)
	}
	m.SortedCols = true
}
