package localmm

import (
	"fmt"
	"sync"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// This file implements the multithreaded local SpGEMM and merge of Sec. IV-D:
// the paper runs 16 threads per MPI process on Cori-KNL, and the local
// kernels are where that parallelism lives. Both entry points use the same
// two-phase plan:
//
//  1. a parallel symbolic pass computes the exact nonzero count of every
//     output column (plus per-column flop counts, which are the load-balance
//     weights);
//  2. the output is allocated exactly once from the prefix sum of those
//     counts; and
//  3. a parallel numeric pass fills each column in place at its final offset.
//
// Workers own contiguous column ranges chosen so each range holds a
// near-equal share of the total flops — not a near-equal share of the
// columns, which degenerates badly on power-law matrices where a handful of
// columns carry most of the work. Because every output column is written by
// exactly one worker into a disjoint slice of the shared output arrays, the
// numeric pass needs no locks and no post-hoc concatenation.
//
// Per-column results are computed by the same algorithms as the serial
// kernels, in the same operand order, so values are bit-identical to the
// serial kernels' output (entry order within an unsorted column may differ;
// sorting canonicalizes it).

// mmWorker is one goroutine's reusable scratch state: a hash accumulator for
// numeric passes, a row set for symbolic passes, a heap for the heap-based
// kernels, the column-view scratch of the format-generic heap kernel, the
// packed-key column sort's scratch, and the output staging of the serial
// kernels. Workers are pooled so repeated SUMMA stages reuse warm buffers
// instead of reallocating per call.
type mmWorker struct {
	acc    *hashAccum
	set    *rowSet
	heap   rowHeap
	aRowsV [][]int32
	aValsV [][]float64
	sort   sortScratch
	// rows and vals stage a serial kernel's whole output, column after
	// column; the kernel then copies it once into exact-size arrays
	// (outputTo), so returned matrices carry no append slack.
	rows []int32
	vals []float64
}

var workerPool = sync.Pool{New: func() any { return new(mmWorker) }}

// getWorker takes a worker from the pool.
func getWorker() *mmWorker { return workerPool.Get().(*mmWorker) }

// putWorker returns w to the pool with its operand views dropped and its
// output staging empty.
func putWorker(w *mmWorker) {
	w.releaseViews()
	w.rows, w.vals = w.rows[:0], w.vals[:0]
	workerPool.Put(w)
}

// outputTo copies the staged output into exact-size RowIdx and Val arrays
// of c.
func (w *mmWorker) outputTo(c *spmat.CSC) {
	c.RowIdx = make([]int32, len(w.rows))
	c.Val = make([]float64, len(w.vals))
	copy(c.RowIdx, w.rows)
	copy(c.Val, w.vals)
}

// accFor returns the worker's accumulator, reset for reuse and reallocated
// only when want distinct rows would exceed a 0.5 load factor.
func (w *mmWorker) accFor(want int64) *hashAccum {
	if w.acc == nil || 2*want > int64(len(w.acc.rows)) {
		w.acc = newHashAccum(want)
	} else {
		w.acc.reset()
	}
	return w.acc
}

// setFor returns the worker's row set under the same reuse policy.
func (w *mmWorker) setFor(want int64) *rowSet {
	if w.set == nil || 2*want > int64(len(w.set.rows)) {
		w.set = newRowSet(want)
	} else {
		w.set.reset()
	}
	return w.set
}

// flopBounds partitions columns into parts contiguous ranges whose work
// totals (colWork, typically flop counts from the symbolic pass) are as even
// as a contiguous split allows. Falls back to a count split when there is no
// work to balance.
func flopBounds(colWork []int64, parts int) []int32 {
	n := int32(len(colWork))
	var total int64
	for _, f := range colWork {
		total += f
	}
	if total == 0 {
		return spmat.PartBounds(n, parts)
	}
	bounds := make([]int32, parts+1)
	bounds[parts] = n
	var acc int64
	j := int32(0)
	for i := 1; i < parts; i++ {
		target := total * int64(i) / int64(parts)
		for j < n && acc < target {
			acc += colWork[j]
			j++
		}
		bounds[i] = j
	}
	return bounds
}

// releaseViews drops the operand-referencing column views of the generic
// heap kernel before the worker returns to the pool: the other scratch
// fields own their memory, but a retained view would keep a whole operand
// matrix reachable across unrelated work.
func (w *mmWorker) releaseViews() {
	rows := w.aRowsV[:cap(w.aRowsV)]
	for i := range rows {
		rows[i] = nil
	}
	vals := w.aValsV[:cap(w.aValsV)]
	for i := range vals {
		vals[i] = nil
	}
}

// runWorkers executes fn(worker, lo, hi) once per column range on its own
// goroutine, handing each a pooled worker.
func runWorkers(bounds []int32, fn func(w *mmWorker, lo, hi int32)) {
	var wg sync.WaitGroup
	for t := 0; t < len(bounds)-1; t++ {
		lo, hi := bounds[t], bounds[t+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			w := getWorker()
			fn(w, lo, hi)
			putWorker(w)
		}(lo, hi)
	}
	wg.Wait()
}

// clampThreads bounds the worker count by the number of columns.
func clampThreads(threads int, cols int32) int {
	if int64(threads) > int64(cols) {
		return int(cols)
	}
	return threads
}

// mulColFlops returns the per-column flop counts of A·B in one O(nnz(B))
// pass (cheaper than ColFlops' per-column slicing; this runs before workers
// exist, so it must be fast).
func mulColFlops(a, b *spmat.CSC) []int64 {
	out := make([]int64, b.Cols)
	for j := int32(0); j < b.Cols; j++ {
		var f int64
		for _, i := range b.RowIdx[b.ColPtr[j]:b.ColPtr[j+1]] {
			f += a.ColPtr[i+1] - a.ColPtr[i]
		}
		out[j] = f
	}
	return out
}

// prefixToColPtr converts per-column counts into a ColPtr prefix sum,
// returning the total.
func prefixToColPtr(counts []int64, colPtr []int64) int64 {
	var acc int64
	for j, c := range counts {
		colPtr[j] = acc
		acc += c
	}
	colPtr[len(counts)] = acc
	return acc
}

// ParallelSpGEMM computes A·B with the selected kernel using threads worker
// goroutines. threads <= 1 (or a trivially small B) runs the serial kernel —
// distributed experiments default to Threads = 1 so ranks stay the only
// concurrency and metered shapes are unchanged.
func ParallelSpGEMM(k Kernel, a, b *spmat.CSC, sr *semiring.Semiring, threads int) *spmat.CSC {
	threads = clampThreads(threads, b.Cols)
	if threads <= 1 || b.Cols < 2 {
		return k.serial()(a, b, sr)
	}
	checkMulShapes(a, b)
	if (k == KernelHeap || k == KernelHybrid) && !a.SortedCols {
		// The heap-based kernels require sorted A columns (same restore as
		// their serial versions, done once and shared read-only here).
		a = a.Clone()
		a.SortColumns()
	}
	colFlops := mulColFlops(a, b)
	bounds := flopBounds(colFlops, threads)

	// Phase 1: exact per-column output sizes.
	colNNZ := parallelColNNZ(a, b, colFlops, bounds)

	// Exact single allocation.
	c := &spmat.CSC{
		Rows:       a.Rows,
		Cols:       b.Cols,
		ColPtr:     make([]int64, b.Cols+1),
		SortedCols: k != KernelHashUnsorted,
	}
	nnz := prefixToColPtr(colNNZ, c.ColPtr)
	c.RowIdx = make([]int32, nnz)
	c.Val = make([]float64, nnz)

	// Phase 2: numeric fill, each column written at its final offset.
	plusTimes := sr.IsPlusTimes()
	runWorkers(bounds, func(w *mmWorker, lo, hi int32) {
		for j := lo; j < hi; j++ {
			if colNNZ[j] == 0 {
				continue
			}
			lo64, hi64 := c.ColPtr[j], c.ColPtr[j+1]
			// Full-capacity sub-slices: the append-style column helpers fill
			// them in place; exceeding the symbolic size would reallocate away
			// from the shared arrays, which checkColumnFill catches.
			dstRows := c.RowIdx[lo64:lo64:hi64]
			dstVals := c.Val[lo64:lo64:hi64]
			bRows, bVals := b.Column(j)
			switch {
			case k == KernelHeap,
				k == KernelHybrid && colFlops[j] <= hybridHeapThreshold:
				outRows, _ := heapMulColumn(&w.heap, a, bRows, bVals, sr, plusTimes, dstRows, dstVals)
				checkColumnFill(outRows, hi64-lo64)
			default:
				acc := w.accFor(colFlops[j])
				hashAccumulateColumn(acc, a, bRows, bVals, sr, plusTimes)
				acc.drainAt(c.RowIdx[lo64:hi64], c.Val[lo64:hi64])
				if k != KernelHashUnsorted {
					sortColumnSlices(c.RowIdx[lo64:hi64], c.Val[lo64:hi64], &w.sort)
				}
			}
		}
	})
	return c
}

// ParallelSymbolicSpGEMM computes nnz(A·B) without forming the product —
// LOCALSYMBOLIC of Alg 3 — using threads worker goroutines. It is the
// symbolic phase of ParallelSpGEMM run standalone: workers own contiguous
// flop-balanced column ranges and count distinct output rows per column with
// pooled row sets, so the count equals SymbolicSpGEMM's for any thread
// count. threads <= 1 (or a trivially small B) runs the serial routine.
func ParallelSymbolicSpGEMM(a, b *spmat.CSC, threads int) int64 {
	threads = clampThreads(threads, b.Cols)
	if threads <= 1 || b.Cols < 2 {
		return SymbolicSpGEMM(a, b)
	}
	checkMulShapes(a, b)
	colFlops := mulColFlops(a, b)
	var total int64
	for _, n := range parallelColNNZ(a, b, colFlops, flopBounds(colFlops, threads)) {
		total += n
	}
	return total
}

// parallelColNNZ is the symbolic pass shared by ParallelSpGEMM (phase 1)
// and ParallelSymbolicSpGEMM: exact distinct-row counts for every output
// column of A·B, computed by pooled workers over flop-balanced column
// ranges. ParallelSpGEMM sizes its single output allocation from these
// counts, so they must be exact, never estimates.
func parallelColNNZ(a, b *spmat.CSC, colFlops []int64, bounds []int32) []int64 {
	colNNZ := make([]int64, b.Cols)
	runWorkers(bounds, func(w *mmWorker, lo, hi int32) {
		for j := lo; j < hi; j++ {
			if colFlops[j] == 0 {
				continue
			}
			set := w.setFor(colFlops[j])
			for _, i := range b.RowIdx[b.ColPtr[j]:b.ColPtr[j+1]] {
				for _, r := range a.RowIdx[a.ColPtr[i]:a.ColPtr[i+1]] {
					set.insert(r)
				}
			}
			colNNZ[j] = int64(len(set.occupied))
		}
	})
	return colNNZ
}

// heapMulColumn computes one output column with the multiway heap merge
// (ascending rows), appending to rows/vals and returning the extended
// slices. It is the shared inner loop of HeapSpGEMM, HybridSpGEMM's heap
// path, and the parallel heap kernels. hp is the caller's reusable heap
// storage.
func heapMulColumn(hp *rowHeap, a *spmat.CSC, bRows []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool, rows []int32, vals []float64) ([]int32, []float64) {
	h := (*hp)[:0]
	for li := range bRows {
		i := bRows[li]
		if a.ColNNZ(i) == 0 {
			continue
		}
		start := a.ColPtr[i]
		h.push(heapEntry{row: a.RowIdx[start], list: int32(li), ptr: start})
	}
	for len(h) > 0 {
		e := h.pop()
		row := e.row
		var acc float64
		first := true
		for {
			i := bRows[e.list]
			var prod float64
			if plusTimes {
				prod = a.Val[e.ptr] * bVals[e.list]
			} else {
				prod = sr.Mul(a.Val[e.ptr], bVals[e.list])
			}
			if first {
				acc, first = prod, false
			} else if plusTimes {
				acc += prod
			} else {
				acc = sr.Add(acc, prod)
			}
			if next := e.ptr + 1; next < a.ColPtr[i+1] {
				h.push(heapEntry{row: a.RowIdx[next], list: e.list, ptr: next})
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

// checkColumnFill panics when a numeric column's entry count disagrees with
// its symbolic size — appending past the pre-sized capacity would have
// reallocated away from the shared output arrays, so this must never pass
// silently.
func checkColumnFill(outRows []int32, want int64) {
	if int64(len(outRows)) != want {
		panic(fmt.Sprintf("localmm: symbolic count %d disagrees with numeric output %d", want, len(outRows)))
	}
}

// ParallelMerge adds same-shaped matrices entry-wise with the selected merger
// using threads worker goroutines, following the same two-phase exact-
// allocation plan as ParallelSpGEMM. The balance weight for a column is its
// total input nonzeros across operands.
func ParallelMerge(mg Merger, mats []*spmat.CSC, sr *semiring.Semiring, sortOutput bool, threads int) *spmat.CSC {
	rows, cols := checkMergeShapes(mats)
	threads = clampThreads(threads, cols)
	if threads <= 1 || cols < 2 || len(mats) == 1 {
		return mg.serial()(mats, sr, sortOutput)
	}
	if mg == MergerHeap {
		// The heap merge needs sorted operands and always emits sorted
		// columns; restore the invariant once, outside the workers.
		sortOutput = true
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
		mats = sorted
	}

	colIn := make([]int64, cols)
	for j := int32(0); j < cols; j++ {
		var n int64
		for _, m := range mats {
			n += m.ColNNZ(j)
		}
		colIn[j] = n
	}
	bounds := flopBounds(colIn, threads)

	// Phase 1: exact merged sizes.
	colNNZ := make([]int64, cols)
	runWorkers(bounds, func(w *mmWorker, lo, hi int32) {
		for j := lo; j < hi; j++ {
			if colIn[j] == 0 {
				continue
			}
			set := w.setFor(colIn[j])
			for _, m := range mats {
				for _, r := range m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]] {
					set.insert(r)
				}
			}
			colNNZ[j] = int64(len(set.occupied))
		}
	})

	c := &spmat.CSC{
		Rows:       rows,
		Cols:       cols,
		ColPtr:     make([]int64, cols+1),
		SortedCols: sortOutput,
	}
	nnz := prefixToColPtr(colNNZ, c.ColPtr)
	c.RowIdx = make([]int32, nnz)
	c.Val = make([]float64, nnz)

	// Phase 2: numeric fill.
	plusTimes := sr.IsPlusTimes()
	runWorkers(bounds, func(w *mmWorker, lo, hi int32) {
		for j := lo; j < hi; j++ {
			if colNNZ[j] == 0 {
				continue
			}
			lo64, hi64 := c.ColPtr[j], c.ColPtr[j+1]
			if mg == MergerHeap {
				outRows, _ := heapMergeColumn(&w.heap, mats, j, sr, plusTimes,
					c.RowIdx[lo64:lo64:hi64], c.Val[lo64:lo64:hi64])
				checkColumnFill(outRows, hi64-lo64)
				continue
			}
			dstRows := c.RowIdx[lo64:hi64]
			dstVals := c.Val[lo64:hi64]
			acc := w.accFor(colIn[j])
			hashAccumulateMergeColumn(acc, mats, j, sr, plusTimes)
			acc.drainAt(dstRows, dstVals)
			if sortOutput {
				sortColumnSlices(dstRows, dstVals, &w.sort)
			}
		}
	})
	return c
}

// heapMergeColumn k-way-merges column j of the (sorted) operands, appending
// to rows/vals and returning the extended slices. It is the shared inner
// loop of HeapMerge and the parallel heap merge.
func heapMergeColumn(hp *rowHeap, mats []*spmat.CSC, j int32, sr *semiring.Semiring, plusTimes bool, rows []int32, vals []float64) ([]int32, []float64) {
	h := (*hp)[:0]
	for mi, m := range mats {
		if m.ColNNZ(j) == 0 {
			continue
		}
		start := m.ColPtr[j]
		h.push(heapEntry{row: m.RowIdx[start], list: int32(mi), ptr: start})
	}
	for len(h) > 0 {
		e := h.pop()
		row := e.row
		var acc float64
		first := true
		for {
			m := mats[e.list]
			v := m.Val[e.ptr]
			if first {
				acc, first = v, false
			} else if plusTimes {
				acc += v
			} else {
				acc = sr.Add(acc, v)
			}
			if next := e.ptr + 1; next < m.ColPtr[j+1] {
				h.push(heapEntry{row: m.RowIdx[next], list: e.list, ptr: next})
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
