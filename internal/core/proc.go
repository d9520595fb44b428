package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/distmat"
	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/spmat"
)

// Proc is one rank's execution context for a distributed SpGEMM C = A·B.
type Proc struct {
	G    *grid.Grid3D
	Opts Options

	// DA and DB describe the global distributions of A (column-sliced into
	// layers) and B (row-sliced into layers).
	DA *distmat.ADist
	DB *distmat.BDist

	// LocalA and LocalB are this rank's pieces, stored per Opts.Format
	// (CSC, DCSC, or the per-block auto heuristic).
	LocalA, LocalB spmat.Matrix

	// bt is the block-cyclic batching of this rank's B block column; set
	// once b is known.
	bt distmat.Batching

	// pipe is the cross-batch pipeline state (overlap ledger plus the
	// prefetched next-batch broadcasts), reset by every BatchedSUMMA3D.
	pipe pipeState

	// sc is the column-subset A-broadcast state (Opts.SparseComm), reset by
	// every BatchedSUMMA3D alongside pipe.
	sc sparseComm
}

// Setup distributes the global operands onto the grid: each rank extracts
// its own piece (the simulated equivalent of reading a pre-distributed
// matrix). A is rows×inner, B is inner×cols.
func Setup(g *grid.Grid3D, a, b *spmat.CSC, opts Options) (*Proc, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("core: inner dimension mismatch: A is %v, B is %v", a, b)
	}
	opts = opts.withDefaults()
	p := &Proc{
		G:    g,
		Opts: opts,
		DA:   distmat.NewADist(a.Rows, a.Cols, g.Q, g.L),
		DB:   distmat.NewBDist(b.Rows, b.Cols, g.Q, g.L),
	}
	p.LocalA = p.DA.LocalMat(a, g.I, g.J, g.K, opts.Format)
	p.LocalB = p.DB.LocalMat(b, g.I, g.J, g.K, opts.Format)
	return p, nil
}

// Result is one rank's output of BatchedSUMMA3D.
type Result struct {
	// C is the local output piece with sorted columns; its columns are in
	// batch-major order and GlobalCols maps each to its global index.
	C *spmat.CSC
	// GlobalCols[x] is the global column of local column x.
	GlobalCols []int32
	// RowOffset is the global row index of local row 0.
	RowOffset int32
	// Batches is the number of batches executed.
	Batches int
	// SymbolicB is what the symbolic step estimated (0 when skipped).
	SymbolicB int
	// LocalFlops counts multiplications performed by this rank.
	LocalFlops int64
	// UnmergedNNZ is Σ over stages and batches of per-stage product nonzeros
	// (the D̃ storage the symbolic step bounds).
	UnmergedNNZ int64
	// MergedLayerNNZ is Σ over batches of nnz(D̃) after Merge-Layer.
	MergedLayerNNZ int64
	// PeakMemBytes is the modeled per-rank memory high-water mark
	// (r · live nonzeros), demonstrating the memory-constrained claim.
	PeakMemBytes int64
	// BatchNNZ is the per-batch local output size before any hook pruning.
	BatchNNZ []int64
}

// BatchHook is invoked after each batch's Merge-Fiber with the batch index,
// the global columns the local piece covers, and the local piece itself
// (sorted columns). The returned matrix replaces the piece in the
// concatenated result; returning nil keeps the piece. Applications use the
// hook to prune or stream out batches (HipMCL, Sec. V-C).
type BatchHook func(batch int, globalCols []int32, c *spmat.CSC) *spmat.CSC

// AssembleResults writes the global C from every rank's Result. It runs on
// every distributed multiply (Multiply, and through it the public Cluster
// and the service) after the ranks finish. Nonzeros are counted per global
// column over all ranks, prefix-summed into ColPtr, and each rank's column
// slices are copied in ascending RowOffset order, so the result has sorted
// columns and exact-size arrays with no sort and no coordinate list. It
// returns an error when two results cover overlapping row ranges of one
// global column (their entries would otherwise be summed or interleaved),
// when a column or row lies outside rows×cols or outside its result's
// block, or when rows do not strictly increase within a result's column.
func AssembleResults(results []*Result, rows, cols int32) (*spmat.CSC, error) {
	rs := make([]*Result, 0, len(results))
	for _, r := range results {
		if r == nil {
			continue
		}
		if int(r.C.Cols) != len(r.GlobalCols) {
			return nil, fmt.Errorf("core: result has %d columns but %d global column indices", r.C.Cols, len(r.GlobalCols))
		}
		if r.RowOffset < 0 || int64(r.RowOffset)+int64(r.C.Rows) > int64(rows) {
			return nil, fmt.Errorf("core: result rows [%d,%d) outside %d rows", r.RowOffset, int64(r.RowOffset)+int64(r.C.Rows), rows)
		}
		rs = append(rs, r)
	}
	// Ascending row ranges; an empty range sorts before a non-empty one
	// starting at the same row.
	slices.SortStableFunc(rs, func(x, y *Result) int {
		return cmp.Or(cmp.Compare(x.RowOffset, y.RowOffset), cmp.Compare(x.C.Rows, y.C.Rows))
	})

	// Count per global column, rejecting overlapping (row range, column)
	// ownership: in ascending RowOffset order, a result must start at or
	// after the end of the previous owner of each of its columns.
	c := &spmat.CSC{Rows: rows, Cols: cols, ColPtr: make([]int64, cols+1), SortedCols: true}
	rowEnd := make([]int32, cols)
	for _, r := range rs {
		for x, gc := range r.GlobalCols {
			if gc < 0 || gc >= cols {
				return nil, fmt.Errorf("core: global column %d outside %d columns", gc, cols)
			}
			if r.RowOffset < rowEnd[gc] {
				return nil, fmt.Errorf("core: two results cover rows near %d of global column %d", r.RowOffset, gc)
			}
			rowEnd[gc] = r.RowOffset + r.C.Rows
			c.ColPtr[gc+1] += r.C.ColNNZ(int32(x))
		}
	}
	for j := int32(0); j < cols; j++ {
		c.ColPtr[j+1] += c.ColPtr[j]
	}
	nnz := c.ColPtr[cols]
	c.RowIdx = make([]int32, nnz)
	c.Val = make([]float64, nnz)

	next := append([]int64(nil), c.ColPtr[:cols]...)
	for _, r := range rs {
		for x, gc := range r.GlobalCols {
			rws, vls := r.C.Column(int32(x))
			if len(rws) == 0 {
				continue
			}
			if rws[0] < 0 || rws[len(rws)-1] >= r.C.Rows {
				return nil, fmt.Errorf("core: result row outside its %d rows in global column %d", r.C.Rows, gc)
			}
			p := next[gc]
			for q, row := range rws {
				if q > 0 && row <= rws[q-1] {
					return nil, fmt.Errorf("core: rows of global column %d not strictly increasing in a result", gc)
				}
				c.RowIdx[p+int64(q)] = row + r.RowOffset
			}
			copy(c.Val[p:], vls)
			next[gc] = p + int64(len(rws))
		}
	}
	return c, nil
}

// multiply runs the configured Local-Multiply kernel, generic over the
// storage format (localmm.MulMat dispatches to the CSC fast path when both
// operands are CSC). Opts.Threads > 1 runs the two-phase parallel kernel;
// the workers execute inside the caller's MeasureCompute token, so the
// single-token gate still serializes ranks and intra-rank speedup shows up
// as shorter measured compute time.
func (p *Proc) multiply(a, b spmat.Matrix) spmat.Matrix {
	return localmm.MulMat(p.Opts.Kernel, a, b, p.Opts.Semiring, p.Opts.Threads)
}

// merge runs the configured merger, parallelized the same way as multiply
// when Opts.Threads > 1 and format-generic like it (Merge-Fiber can see
// mixed formats under the auto heuristic).
func (p *Proc) merge(mats []spmat.Matrix, sorted bool) spmat.Matrix {
	return localmm.MergeMat(p.Opts.Merger, mats, p.Opts.Semiring, sorted, p.Opts.Threads)
}

// colScanWork is the column-metadata share of a block's modeled work: the
// dense column count for CSC, the stored-column count for DCSC. This is the
// O(n)-per-block term the doubly-compressed path removes from the modeled
// critical path.
func colScanWork(m spmat.Matrix) int64 {
	if m.Format() == spmat.FormatDCSC {
		return m.NonEmptyCols()
	}
	_, cols := m.Dims()
	return int64(cols)
}
