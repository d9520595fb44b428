package localmm

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// hashAccum is an open-addressing (linear probing) row→value accumulator with
// power-of-two capacity. The occupied slot list makes draining O(distinct)
// instead of O(capacity).
type hashAccum struct {
	rows     []int32
	vals     []float64
	mask     int32
	occupied []int32 // slot indices in insertion order
}

const emptySlot = int32(-1)

// newHashAccum returns an accumulator able to hold at least want distinct
// rows with load factor ≤ 0.5.
func newHashAccum(want int64) *hashAccum {
	cap := int32(8)
	for int64(cap) < 2*want {
		cap <<= 1
	}
	h := &hashAccum{
		rows: make([]int32, cap),
		vals: make([]float64, cap),
		mask: cap - 1,
	}
	for i := range h.rows {
		h.rows[i] = emptySlot
	}
	return h
}

// reset clears the accumulator for reuse without reallocating.
func (h *hashAccum) reset() {
	for _, s := range h.occupied {
		h.rows[s] = emptySlot
	}
	h.occupied = h.occupied[:0]
}

// grow doubles capacity, rehashing the occupied entries.
func (h *hashAccum) grow() {
	oldRows, oldVals, oldOcc := h.rows, h.vals, h.occupied
	cap := int32(len(oldRows)) * 2
	h.rows = make([]int32, cap)
	h.vals = make([]float64, cap)
	h.mask = cap - 1
	h.occupied = make([]int32, 0, len(oldOcc))
	for i := range h.rows {
		h.rows[i] = emptySlot
	}
	for _, s := range oldOcc {
		h.insertRaw(oldRows[s], oldVals[s])
	}
}

// hash scrambles the row index; the multiplier is the 32-bit Fibonacci
// constant.
func (h *hashAccum) hash(r int32) int32 {
	return int32(uint32(r)*2654435769) & h.mask
}

// insertRaw stores (r, v) assuming r is not present.
func (h *hashAccum) insertRaw(r int32, v float64) {
	s := h.hash(r)
	for h.rows[s] != emptySlot {
		s = (s + 1) & h.mask
	}
	h.rows[s] = r
	h.vals[s] = v
	h.occupied = append(h.occupied, s)
}

// addPlus accumulates v into row r with ordinary +. Fast path for the
// arithmetic semiring.
func (h *hashAccum) addPlus(r int32, v float64) {
	if 2*int32(len(h.occupied)) >= int32(len(h.rows)) {
		h.grow()
	}
	s := h.hash(r)
	for {
		switch h.rows[s] {
		case r:
			h.vals[s] += v
			return
		case emptySlot:
			h.rows[s] = r
			h.vals[s] = v
			h.occupied = append(h.occupied, s)
			return
		}
		s = (s + 1) & h.mask
	}
}

// add accumulates v into row r with the semiring's Add.
func (h *hashAccum) add(r int32, v float64, addFn func(a, b float64) float64) {
	if 2*int32(len(h.occupied)) >= int32(len(h.rows)) {
		h.grow()
	}
	s := h.hash(r)
	for {
		switch h.rows[s] {
		case r:
			h.vals[s] = addFn(h.vals[s], v)
			return
		case emptySlot:
			h.rows[s] = r
			h.vals[s] = v
			h.occupied = append(h.occupied, s)
			return
		}
		s = (s + 1) & h.mask
	}
}

// drainInto appends the accumulated (row, value) pairs to the slices in
// insertion order (unsorted) and returns the extended slices. The serial
// kernels drain into their worker's reused output staging.
func (h *hashAccum) drainInto(rows []int32, vals []float64) ([]int32, []float64) {
	for _, s := range h.occupied {
		rows = append(rows, h.rows[s])
		vals = append(vals, h.vals[s])
	}
	return rows, vals
}

// drainAt writes the accumulated pairs, in insertion order, into destination
// slices that were pre-sized by a symbolic pass.
func (h *hashAccum) drainAt(rows []int32, vals []float64) {
	if len(h.occupied) != len(rows) {
		panic(fmt.Sprintf("localmm: symbolic count %d disagrees with numeric hash output %d", len(rows), len(h.occupied)))
	}
	for i, s := range h.occupied {
		rows[i] = h.rows[s]
		vals[i] = h.vals[s]
	}
}

// checkMulShapes panics when the operand shapes are incompatible; shape
// errors here are programmer errors in the distribution logic.
func checkMulShapes(a, b *spmat.CSC) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("localmm: inner dimension mismatch: A is %v, B is %v", a, b))
	}
}

// HashSpGEMM multiplies A·B with the sort-free hash kernel of Sec. IV-D
// ("unsorted-hash"). Neither operand needs sorted columns and the result's
// columns are unsorted. This is the paper's new Local-Multiply kernel.
func HashSpGEMM(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return hashSpGEMM(a, b, sr, false)
}

// HashSpGEMMSorted is HashSpGEMM followed by sorting each output column. It
// matches how hash kernels were used before the sort-free observation.
func HashSpGEMMSorted(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return hashSpGEMM(a, b, sr, true)
}

func hashSpGEMM(a, b *spmat.CSC, sr *semiring.Semiring, sortCols bool) *spmat.CSC {
	checkMulShapes(a, b)
	c := &spmat.CSC{
		Rows:       a.Rows,
		Cols:       b.Cols,
		ColPtr:     make([]int64, b.Cols+1),
		SortedCols: sortCols,
	}
	plusTimes := sr.IsPlusTimes()
	w := getWorker()
	defer putWorker(w)
	for j := int32(0); j < b.Cols; j++ {
		// Upper bound on distinct output rows in this column: its flops.
		var colFlops int64
		bRows, bVals := b.Column(j)
		for _, i := range bRows {
			colFlops += a.ColNNZ(i)
		}
		if colFlops > 0 {
			acc := w.accFor(colFlops)
			hashAccumulateColumn(acc, a, bRows, bVals, sr, plusTimes)
			lo := len(w.rows)
			w.rows, w.vals = acc.drainInto(w.rows, w.vals)
			if sortCols {
				sortColumnSlices(w.rows[lo:], w.vals[lo:], &w.sort)
			}
		}
		c.ColPtr[j+1] = int64(len(w.rows))
	}
	w.outputTo(c)
	return c
}

// hashAccumulateColumn feeds one output column's products into acc: the
// shared inner loop of hashSpGEMM, HybridSpGEMM's hash branch, and the
// parallel hash kernels.
func hashAccumulateColumn(acc *hashAccum, a *spmat.CSC, bRows []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool) {
	if plusTimes {
		for p := range bRows {
			i, bv := bRows[p], bVals[p]
			aRows, aVals := a.Column(i)
			for q := range aRows {
				acc.addPlus(aRows[q], aVals[q]*bv)
			}
		}
	} else {
		for p := range bRows {
			i, bv := bRows[p], bVals[p]
			aRows, aVals := a.Column(i)
			for q := range aRows {
				acc.add(aRows[q], sr.Mul(aVals[q], bv), sr.Add)
			}
		}
	}
}
