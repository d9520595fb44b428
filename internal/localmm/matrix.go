package localmm

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// This file is the format-generic layer of the local kernels: SpGEMM,
// symbolic SpGEMM, and merge over the spmat.Matrix storage interface. When
// every operand is CSC it dispatches to the specialized CSC kernels (the
// historical code paths, bit-identical and allocation-tuned); otherwise it
// runs a hypersparse-aware implementation that iterates only the *stored*
// columns of the B-side operand, so symbolic and numeric work on a
// doubly-compressed block is O(flops + nnz) — never O(cols). That is the
// in-memory counterpart of the hypersparse wire encoding: at the paper's
// scale the local blocks have far more columns than nonzeros (Rice-kmers,
// ~2 nnz/col), and a per-column scan would dominate every stage.
//
// Output format follows B: the stored columns of A·B are a subset of B's,
// so a DCSC B yields a DCSC product (a batch piece stays compressed through
// multiply → merge), while a CSC B keeps the dense-pointer output whose
// column metadata already exists. Values are bit-identical to the CSC
// kernels for any format combination: columns are visited in the same
// ascending order, entries accumulate in the same operand order, and the
// hash accumulators drain in the same insertion order.

// colRef is one stored column of a Matrix: its logical index and views of
// its entries.
type colRef struct {
	j    int32
	rows []int32
	vals []float64
}

// colRefs collects the stored columns of m in ascending column order.
func colRefs(m spmat.Matrix) []colRef {
	refs := make([]colRef, 0, m.NonEmptyCols())
	m.EnumCols(func(j int32, rows []int32, vals []float64) {
		refs = append(refs, colRef{j: j, rows: rows, vals: vals})
	})
	return refs
}

// checkMulShapesMat panics on inner-dimension mismatch.
func checkMulShapesMat(a, b spmat.Matrix) {
	_, ac := a.Dims()
	br, _ := b.Dims()
	if ac != br {
		panic(fmt.Sprintf("localmm: inner dimension mismatch: A is %v, B is %v", a, b))
	}
}

// aCursor is the A-side column access of the generic kernels: direct O(1)
// indexing when A is CSC, a positional DCSC cursor otherwise. The inner loop
// looks A's columns up by the row indices of one B column, which are
// ascending whenever B is sorted (every distributed operand is), so the
// cursor turns the former per-lookup O(log nzc) binary search into an
// amortized O(1) forward gallop; unsorted operands fall back to the cursor's
// binary-search path and are never worse than before. A cursor is mutable
// single-goroutine state: every worker takes its own with cursorFor.
type aCursor struct {
	csc *spmat.CSC
	dc  spmat.DCSCCursor
}

// cursorFor returns a fresh cursor over a.
func cursorFor(a spmat.Matrix) aCursor {
	if c, ok := a.(*spmat.CSC); ok {
		return aCursor{csc: c}
	}
	return aCursor{dc: a.ToDCSC().Cursor()}
}

// Column returns views of column j's rows and values.
func (c *aCursor) Column(j int32) ([]int32, []float64) {
	if c.csc != nil {
		return c.csc.Column(j)
	}
	return c.dc.Column(j)
}

// ColNNZ returns the entry count of column j.
func (c *aCursor) ColNNZ(j int32) int64 {
	if c.csc != nil {
		return c.csc.ColNNZ(j)
	}
	return c.dc.ColNNZ(j)
}

// MatFlops returns the multiplication count of A·B (Flops generalized to the
// storage interface); O(nnz(B) · lookup) with no dense column scan.
func MatFlops(a, b spmat.Matrix) int64 {
	if ac, ok := a.(*spmat.CSC); ok {
		if bc, ok := b.(*spmat.CSC); ok {
			return Flops(ac, bc)
		}
	}
	checkMulShapesMat(a, b)
	cur := cursorFor(a)
	var total int64
	b.EnumCols(func(_ int32, rows []int32, _ []float64) {
		for _, i := range rows {
			total += cur.ColNNZ(i)
		}
	})
	return total
}

// matColFlops returns the flop count of every stored output column.
func matColFlops(a spmat.Matrix, bRefs []colRef) []int64 {
	cur := cursorFor(a)
	out := make([]int64, len(bRefs))
	for p, ref := range bRefs {
		var f int64
		for _, i := range ref.rows {
			f += cur.ColNNZ(i)
		}
		out[p] = f
	}
	return out
}

// matColNNZ is the symbolic pass of the generic kernels: exact distinct-row
// counts for every stored output column, computed by pooled workers over
// flop-balanced ranges of stored-column positions.
func matColNNZ(a spmat.Matrix, bRefs []colRef, colFlops []int64, bounds []int32) []int64 {
	colNNZ := make([]int64, len(bRefs))
	runWorkers(bounds, func(w *mmWorker, lo, hi int32) {
		cur := cursorFor(a)
		for p := lo; p < hi; p++ {
			if colFlops[p] == 0 {
				continue
			}
			set := w.setFor(colFlops[p])
			for _, i := range bRefs[p].rows {
				rws, _ := cur.Column(i)
				for _, r := range rws {
					set.insert(r)
				}
			}
			colNNZ[p] = int64(len(set.occupied))
		}
	})
	return colNNZ
}

// matThreads bounds the worker count by the stored-column count, keeping at
// least one.
func matThreads(threads, stored int) int {
	if threads > stored {
		threads = stored
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// SymbolicMat computes nnz(A·B) without forming the product, over any format
// combination. Work on a doubly-compressed B is O(flops + nnz(B)).
func SymbolicMat(a, b spmat.Matrix, threads int) int64 {
	if ac, ok := a.(*spmat.CSC); ok {
		if bc, ok := b.(*spmat.CSC); ok {
			return ParallelSymbolicSpGEMM(ac, bc, threads)
		}
	}
	checkMulShapesMat(a, b)
	bRefs := colRefs(b)
	colFlops := matColFlops(a, bRefs)
	threads = matThreads(threads, len(bRefs))
	var total int64
	for _, n := range matColNNZ(a, bRefs, colFlops, flopBounds(colFlops, threads)) {
		total += n
	}
	return total
}

// MulMat computes A·B with the selected kernel over any format combination,
// with threads worker goroutines (threads <= 1 is effectively serial: one
// flop-balanced range). Both-CSC operands dispatch to ParallelSpGEMM; the
// generic path uses the same two-phase exact-allocation plan driven by B's
// stored columns only.
func MulMat(k Kernel, a, b spmat.Matrix, sr *semiring.Semiring, threads int) spmat.Matrix {
	if ac, ok := a.(*spmat.CSC); ok {
		if bc, ok := b.(*spmat.CSC); ok {
			return ParallelSpGEMM(k, ac, bc, sr, threads)
		}
	}
	checkMulShapesMat(a, b)
	if (k == KernelHeap || k == KernelHybrid) && !a.Sorted() {
		// The heap-based kernels require sorted A columns; restore once,
		// shared read-only by all workers (same policy as the CSC kernels).
		a = a.CloneMat()
		a.SortColumns()
	}
	aRows, _ := a.Dims()
	_, bCols := b.Dims()
	bRefs := colRefs(b)
	colFlops := matColFlops(a, bRefs)
	threads = matThreads(threads, len(bRefs))
	bounds := flopBounds(colFlops, threads)

	// Phase 1: exact per-column output sizes.
	colNNZ := matColNNZ(a, bRefs, colFlops, bounds)

	// Exact single allocation; stored output columns are the stored B
	// columns with nonzero flops.
	sortedOut := k != KernelHashUnsorted
	dst := newMatBuilder(b.Format(), aRows, bCols, bRefs, colNNZ, sortedOut)

	// Phase 2: numeric fill, each column written at its final offset.
	plusTimes := sr.IsPlusTimes()
	runWorkers(bounds, func(w *mmWorker, lo, hi int32) {
		cur := cursorFor(a)
		for p := lo; p < hi; p++ {
			if colNNZ[p] == 0 {
				continue
			}
			dstRows, dstVals := dst.column(p)
			switch {
			case k == KernelHeap,
				k == KernelHybrid && colFlops[p] <= hybridHeapThreshold:
				outRows, _ := heapMulColumnMat(w, &cur, bRefs[p].rows, bRefs[p].vals, sr, plusTimes,
					dstRows[:0:len(dstRows)], dstVals[:0:len(dstVals)])
				checkColumnFill(outRows, int64(len(dstRows)))
			default:
				acc := w.accFor(colFlops[p])
				hashAccumulateColumnMat(acc, &cur, bRefs[p].rows, bRefs[p].vals, sr, plusTimes)
				acc.drainAt(dstRows, dstVals)
				if sortedOut {
					sortColumnSlices(dstRows, dstVals, &w.sort)
				}
			}
		}
	})
	return dst.finish()
}

// matBuilder assembles the exactly-sized output of the generic two-phase
// kernels in either format. For DCSC output only the nonzero-count columns
// get JC/CP entries — no O(cols) array exists at any point; for CSC output
// the dense ColPtr is scattered from the stored counts.
type matBuilder struct {
	csc  *spmat.CSC
	dcsc *spmat.DCSC
	// colPtr parallels the refs list: colPtr[p] : colPtr[p+1] is stored
	// column p's range in the entry arrays, with repeated offsets for
	// zero-count columns. It is NOT dcsc.CP, which skips those columns and
	// has one entry per JC entry only.
	colPtr []int64
	ir     []int32
	num    []float64
}

// newMatBuilder sizes the output arrays from the symbolic counts.
func newMatBuilder(f spmat.Format, rows, cols int32, refs []colRef, colNNZ []int64, sorted bool) *matBuilder {
	b := &matBuilder{}
	if f == spmat.FormatDCSC {
		d := &spmat.DCSC{Rows: rows, Cols: cols, CP: make([]int64, 1, len(refs)+1), SortedCols: sorted}
		var nnz int64
		b.colPtr = make([]int64, 0, len(refs)+1)
		b.colPtr = append(b.colPtr, 0)
		for p := range refs {
			if colNNZ[p] == 0 {
				// Absent from the output; repeat the offset so column p's
				// range is empty.
				b.colPtr = append(b.colPtr, nnz)
				continue
			}
			nnz += colNNZ[p]
			d.JC = append(d.JC, refs[p].j)
			d.CP = append(d.CP, nnz)
			b.colPtr = append(b.colPtr, nnz)
		}
		d.IR = make([]int32, nnz)
		d.Num = make([]float64, nnz)
		b.dcsc, b.ir, b.num = d, d.IR, d.Num
		return b
	}
	c := &spmat.CSC{Rows: rows, Cols: cols, ColPtr: make([]int64, cols+1), SortedCols: sorted}
	b.colPtr = make([]int64, len(refs)+1)
	var nnz int64
	for p := range refs {
		b.colPtr[p] = nnz
		nnz += colNNZ[p]
		c.ColPtr[refs[p].j+1] = colNNZ[p]
	}
	b.colPtr[len(refs)] = nnz
	for j := int32(0); j < cols; j++ {
		c.ColPtr[j+1] += c.ColPtr[j]
	}
	c.RowIdx = make([]int32, nnz)
	c.Val = make([]float64, nnz)
	b.csc, b.ir, b.num = c, c.RowIdx, c.Val
	return b
}

// column returns the destination slices of stored column p.
func (b *matBuilder) column(p int32) ([]int32, []float64) {
	lo, hi := b.colPtr[p], b.colPtr[p+1]
	return b.ir[lo:hi], b.num[lo:hi]
}

// finish returns the built matrix.
func (b *matBuilder) finish() spmat.Matrix {
	if b.dcsc != nil {
		return b.dcsc
	}
	return b.csc
}

// hashAccumulateColumnMat is hashAccumulateColumn over the storage
// interface: one output column's products fed into acc, in the same operand
// order as the CSC kernels. The A side is accessed through the caller's
// positional cursor, so the per-entry lookup is amortized O(1) on sorted B
// columns instead of the O(log nzc) binary search of Matrix.Column.
func hashAccumulateColumnMat(acc *hashAccum, a *aCursor, bRows []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool) {
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

// heapMulColumnMat is heapMulColumn over the storage interface: the column
// views of A are fetched once per contributing entry (through the caller's
// positional cursor) into the worker's pooled scratch and cursored by index
// — no per-column allocation, like the CSC kernel. Push order and tie
// handling match the CSC version exactly, so the output is bit-identical.
func heapMulColumnMat(w *mmWorker, a *aCursor, bRows []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool, rows []int32, vals []float64) ([]int32, []float64) {
	if cap(w.aRowsV) < len(bRows) {
		w.aRowsV = make([][]int32, len(bRows))
		w.aValsV = make([][]float64, len(bRows))
	}
	aRowsV := w.aRowsV[:len(bRows)]
	aValsV := w.aValsV[:len(bRows)]
	h := w.heap[:0]
	for li, i := range bRows {
		r, v := a.Column(i)
		aRowsV[li], aValsV[li] = r, v
		if len(r) > 0 {
			h.push(heapEntry{row: r[0], list: int32(li), ptr: 0})
		}
	}
	for len(h) > 0 {
		e := h.pop()
		row := e.row
		var acc float64
		first := true
		for {
			var prod float64
			if plusTimes {
				prod = aValsV[e.list][e.ptr] * bVals[e.list]
			} else {
				prod = sr.Mul(aValsV[e.list][e.ptr], bVals[e.list])
			}
			if first {
				acc, first = prod, false
			} else if plusTimes {
				acc += prod
			} else {
				acc = sr.Add(acc, prod)
			}
			if next := e.ptr + 1; next < int64(len(aRowsV[e.list])) {
				h.push(heapEntry{row: aRowsV[e.list][next], list: e.list, ptr: next})
			}
			if len(h) == 0 || h[0].row != row {
				break
			}
			e = h.pop()
		}
		rows = append(rows, row)
		vals = append(vals, acc)
	}
	w.heap = h
	return rows, vals
}

// MergeMat adds same-shaped matrices entry-wise with the selected merger
// over any format combination (operands may even mix formats, as Merge-Fiber
// sees under the auto heuristic). All-CSC operands dispatch to
// ParallelMerge; the generic path walks the union of stored columns — a
// k-way merge over the operands' ascending column lists, O(Σ nzc) — and
// runs the same two-phase exact-allocation plan as MulMat. Output is DCSC
// when every operand is DCSC, CSC otherwise.
func MergeMat(mg Merger, mats []spmat.Matrix, sr *semiring.Semiring, sortOutput bool, threads int) spmat.Matrix {
	if len(mats) == 0 {
		panic("localmm: merge of zero matrices")
	}
	allCSC := true
	allDCSC := true
	for _, m := range mats {
		if m.Format() == spmat.FormatCSC {
			allDCSC = false
		} else {
			allCSC = false
		}
	}
	if allCSC {
		cs := make([]*spmat.CSC, len(mats))
		for i, m := range mats {
			cs[i] = m.ToCSC()
		}
		return ParallelMerge(mg, cs, sr, sortOutput, threads)
	}
	rows, cols := mats[0].Dims()
	for _, m := range mats {
		r, c := m.Dims()
		if r != rows || c != cols {
			panic(fmt.Sprintf("localmm: merge shape mismatch %v vs %dx%d", m, rows, cols))
		}
	}
	if len(mats) == 1 {
		out := mats[0].CloneMat()
		if sortOutput {
			out.SortColumns()
		}
		return out
	}
	if mg == MergerHeap {
		// The heap merge needs sorted operands and always emits sorted
		// columns; restore the invariant once, on copies.
		sortOutput = true
		sorted := make([]spmat.Matrix, len(mats))
		for i, m := range mats {
			if m.Sorted() {
				sorted[i] = m
			} else {
				cp := m.CloneMat()
				cp.SortColumns()
				sorted[i] = cp
			}
		}
		mats = sorted
	}

	union := unionCols(mats)
	colIn := make([]int64, len(union))
	for u, uc := range union {
		var n int64
		for _, part := range uc.parts {
			n += int64(len(part.rows))
		}
		colIn[u] = n
	}
	threads = matThreads(threads, len(union))
	bounds := flopBounds(colIn, threads)

	// Phase 1: exact merged sizes (a stored input column has at least one
	// entry, so every union column stays non-empty).
	colNNZ := make([]int64, len(union))
	runWorkers(bounds, func(w *mmWorker, lo, hi int32) {
		for u := lo; u < hi; u++ {
			set := w.setFor(colIn[u])
			for _, part := range union[u].parts {
				for _, r := range part.rows {
					set.insert(r)
				}
			}
			colNNZ[u] = int64(len(set.occupied))
		}
	})

	outFmt := spmat.FormatCSC
	if allDCSC {
		outFmt = spmat.FormatDCSC
	}
	refs := make([]colRef, len(union))
	for u := range union {
		refs[u] = colRef{j: union[u].j}
	}
	dst := newMatBuilder(outFmt, rows, cols, refs, colNNZ, sortOutput)

	// Phase 2: numeric fill.
	plusTimes := sr.IsPlusTimes()
	runWorkers(bounds, func(w *mmWorker, lo, hi int32) {
		for u := lo; u < hi; u++ {
			dstRows, dstVals := dst.column(u)
			if mg == MergerHeap {
				outRows, _ := heapMergeColumnMat(&w.heap, union[u].parts, sr, plusTimes,
					dstRows[:0:len(dstRows)], dstVals[:0:len(dstVals)])
				checkColumnFill(outRows, int64(len(dstRows)))
				continue
			}
			acc := w.accFor(colIn[u])
			for _, part := range union[u].parts {
				if plusTimes {
					for p := range part.rows {
						acc.addPlus(part.rows[p], part.vals[p])
					}
				} else {
					for p := range part.rows {
						acc.add(part.rows[p], part.vals[p], sr.Add)
					}
				}
			}
			acc.drainAt(dstRows, dstVals)
			if sortOutput {
				sortColumnSlices(dstRows, dstVals, &w.sort)
			}
		}
	})
	return dst.finish()
}

// unionCol is one column of the merged output: its logical index and the
// contributing operands' column views, in operand order (the order the CSC
// merge accumulates in, which fixes the floating-point result).
type unionCol struct {
	j     int32
	parts []colRef
}

// unionCols k-way-merges the operands' stored-column lists into the
// ascending union, gathering each column's contributions.
func unionCols(mats []spmat.Matrix) []unionCol {
	refs := make([][]colRef, len(mats))
	total := 0
	for i, m := range mats {
		refs[i] = colRefs(m)
		total += len(refs[i])
	}
	idx := make([]int, len(mats))
	out := make([]unionCol, 0, total)
	for {
		minJ := int32(-1)
		for i := range mats {
			if idx[i] < len(refs[i]) {
				if j := refs[i][idx[i]].j; minJ < 0 || j < minJ {
					minJ = j
				}
			}
		}
		if minJ < 0 {
			return out
		}
		uc := unionCol{j: minJ}
		for i := range mats {
			if idx[i] < len(refs[i]) && refs[i][idx[i]].j == minJ {
				uc.parts = append(uc.parts, refs[i][idx[i]])
				idx[i]++
			}
		}
		out = append(out, uc)
	}
}

// heapMergeColumnMat k-way-merges one column's (sorted) contributions,
// matching heapMergeColumn's push order and tie handling.
func heapMergeColumnMat(hp *rowHeap, parts []colRef, sr *semiring.Semiring, plusTimes bool, rows []int32, vals []float64) ([]int32, []float64) {
	h := (*hp)[:0]
	for pi := range parts {
		if len(parts[pi].rows) > 0 {
			h.push(heapEntry{row: parts[pi].rows[0], list: int32(pi), ptr: 0})
		}
	}
	for len(h) > 0 {
		e := h.pop()
		row := e.row
		var acc float64
		first := true
		for {
			v := parts[e.list].vals[e.ptr]
			if first {
				acc, first = v, false
			} else if plusTimes {
				acc += v
			} else {
				acc = sr.Add(acc, v)
			}
			if next := e.ptr + 1; next < int64(len(parts[e.list].rows)) {
				h.push(heapEntry{row: parts[e.list].rows[next], list: e.list, ptr: next})
			}
			if len(h) == 0 || h[0].row != row {
				break
			}
			e = h.pop()
		}
		rows = append(rows, row)
		vals = append(vals, acc)
	}
	*hp = h
	return rows, vals
}
