package localmm

import (
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// MaskedSpGEMM computes (A·B) .* mask without materializing A·B: per output
// column only the rows present in the mask's column are accumulated. This is
// the masked multiplication used by triangle counting (C = (L·U) .* L, [3])
// — on triangle workloads the wedge matrix L·U is far denser than the mask,
// so skipping unmasked rows avoids most of the accumulation work. Output
// columns are sorted in the mask's order (masks are sorted in practice).
func MaskedSpGEMM(a, b, mask *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	checkMulShapes(a, b)
	if mask.Rows != a.Rows || mask.Cols != b.Cols {
		panic("localmm: mask shape mismatch")
	}
	c := &spmat.CSC{
		Rows:       a.Rows,
		Cols:       b.Cols,
		ColPtr:     make([]int64, b.Cols+1),
		SortedCols: mask.SortedCols,
	}
	plusTimes := sr.IsPlusTimes()
	// Dense accumulator over the masked rows of one column: allowed[r]
	// stores the position of r in the mask column (+1), acc the partial sum.
	allowed := make([]int32, a.Rows)
	acc := make([]float64, 0, 64)
	hit := make([]bool, 0, 64)
	for j := int32(0); j < b.Cols; j++ {
		mRows, _ := mask.Column(j)
		if len(mRows) == 0 {
			c.ColPtr[j+1] = int64(len(c.RowIdx))
			continue
		}
		for pos, r := range mRows {
			allowed[r] = int32(pos) + 1
		}
		acc = acc[:0]
		hit = hit[:0]
		for range mRows {
			acc = append(acc, sr.Zero)
			hit = append(hit, false)
		}
		bRows, bVals := b.Column(j)
		for p := range bRows {
			i, bv := bRows[p], bVals[p]
			aRows, aVals := a.Column(i)
			for q := range aRows {
				pos := allowed[aRows[q]]
				if pos == 0 {
					continue
				}
				if plusTimes {
					acc[pos-1] += aVals[q] * bv
				} else {
					acc[pos-1] = sr.Add(acc[pos-1], sr.Mul(aVals[q], bv))
				}
				hit[pos-1] = true
			}
		}
		for pos, r := range mRows {
			if hit[pos] {
				c.RowIdx = append(c.RowIdx, r)
				c.Val = append(c.Val, acc[pos])
			}
		}
		c.ColPtr[j+1] = int64(len(c.RowIdx))
		// Reset the scatter array for the next column.
		for _, r := range mRows {
			allowed[r] = 0
		}
	}
	return c
}
