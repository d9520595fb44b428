// Package localmm implements the in-process SpGEMM and merging kernels used
// by every SUMMA stage. It contains both generations the paper compares:
//
//   - "previous": heap-based column SpGEMM and heap-based merging, which keep
//     every intermediate sorted (Azad et al. [13]), and the hybrid heap/hash
//     kernel of Nagasaka et al. [25] that sorts each output column;
//   - "new" (Sec. IV-D): sort-free hash SpGEMM and sort-free hash merging,
//     which leave intermediates unsorted and defer all sorting to the final
//     Merge-Fiber.
//
// All kernels are column-Gustavson: C(:,j) = Σ_{i : B(i,j)≠0} A(:,i)·B(i,j),
// and all accept an arbitrary semiring.
//
// # Output path
//
// Every kernel and merger returns entry arrays sized exactly to the output's
// nonzeros. The serial forms drain each column into a pooled worker's
// staging scratch, reused together with its hash accumulator across columns
// and calls, and copy the whole output once into exact-size RowIdx/Val; the
// threaded and format-generic forms size their single allocation from the
// symbolic counts. Columns that must come out sorted use one typed sort
// (sortColumnSlices; SortColumns applies it to a whole matrix): insertion
// sort for short columns, slices.Sort on packed uint64(row)<<32 | position
// keys followed by one gather of the values for long ones. Rows within an
// output column are distinct, so the sorted order — and every product — is
// the same as any other sort's.
//
// # Kernels and mergers
//
// The Kernel and Merger enums name every generation for callers
// (ParseKernel/ParseMerger accept the CLI spellings; Kernel.Func and
// Merger.Merge dispatch). Distributed runs use the paper's unsorted hash
// kernel and hash merge unless a caller pins another: BenchmarkKernelCrossover
// (BENCH_kernels.json) measures unsorted hash fastest at every density from
// 4 to 1024 flops per column, so nothing picks between them at run time.
// The others stay as references for the Table VII and Fig 15 ablations.
// Every kernel × merger combination produces bit-identical output,
// including float64 values. That guarantee is engineered, not incidental —
// the hash paths accumulate each output entry in operand order, and the
// heap paths order rowHeap by (row, operand list) so same-row contributions
// pop in exactly that order; differential suites here and in core hold every
// combination to exact equality through full distributed runs.
//
// # Symbolic kernels
//
// SymbolicSpGEMM (and its threaded form ParallelSymbolicSpGEMM) is the
// LOCALSYMBOLIC routine of Alg 3: it counts nnz(A·B) without touching
// values, using a generation-stamped dense array when the row space permits
// and a hash set otherwise. The distributed symbolic step builds the batch
// count decision from these counts, so they must be exact, not estimates —
// Flops, ColFlops, and CompressionFactor supply the companion statistics.
//
// # Multithreading
//
// Every kernel and merger also has a multithreaded form (ParallelSpGEMM,
// ParallelMerge, ParallelSymbolicSpGEMM, and the threads argument of
// Kernel.Func and Merger.Merge), mirroring the paper's
// 16-threads-per-process Cori-KNL configuration. The parallel plan is
// two-phase: a parallel symbolic pass computes the exact nonzero count of
// every output column, the output is allocated once from the prefix sum of
// those counts, and a parallel numeric pass fills each column in place.
// Workers own contiguous column ranges balanced by flop count (not column
// count), reuse pooled accumulator state across columns and calls, and
// never synchronize during the numeric pass because every column lands in a
// disjoint slice of the shared output.
//
// threads <= 1 runs the serial kernels unchanged, which is the default for
// all metered experiments: rank goroutines are already concurrent, and the
// mpi compute-token gate means parallel workers — when enabled — run inside
// a rank's measured compute section, shortening measured time without
// perturbing the communication model. Results are independent of the thread
// count: each output column is computed by one worker in serial operand
// order, so even float64 accumulation is bit-identical to the serial kernel
// (entry order within unsorted columns aside).
//
// # Storage-format-generic kernels
//
// MulMat, SymbolicMat, MergeMat, and MatFlops run the same algorithms over
// the spmat.Matrix storage interface. All-CSC operand sets dispatch to the
// specialized CSC kernels above; any doubly-compressed (DCSC) operand takes
// the hypersparse path, which iterates only the stored columns of the
// B-side operand (or the union of stored columns, for merges) so symbolic
// and numeric work on a hypersparse block is O(flops + nnz) with no O(cols)
// scan or allocation anywhere. Output format follows B — the stored columns
// of A·B are a subset of B's — and values are bit-identical to the CSC
// kernels for every format combination, thread count, and merger, because
// columns are visited in the same order and entries accumulate in the same
// operand order.
//
// # Sparse×dense kernels
//
// SpMM multiplies a sparse operand by a row-major dense panel
// (spmat.DenseMat) — the local kernel of the 1.5D ColA/InnerABC schedules —
// with SpMMInto folding each ring round's shifted block into a caller-owned
// resident accumulator and SpMMSerial as the differential reference
// distributed runs must match bit for bit on integer-valued operands. The
// threaded form splits the panel's columns evenly across workers (each
// dense column costs exactly nnz(A) flops), so values are identical for
// every thread count. SDDMM, the sampled dense-dense counterpart
// (C = S ∘ U·Vᵀ), covers the GNN-backprop companion operation, and
// SpMMFlops supplies the work-unit accounting the meters and planner share.
package localmm
