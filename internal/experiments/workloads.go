package experiments

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// Scale selects the workload size. The paper's matrices are billions of
// nonzeros; these analogues keep the distinguishing ratios (nnz(C)≫nnz(A),
// compression factor, aspect ratio) at laptop scale.
type Scale int

// Workload scales.
const (
	// ScaleTiny is for unit tests and testing.B benchmarks.
	ScaleTiny Scale = iota
	// ScaleSmall is the default for interactive runs (seconds per experiment).
	ScaleSmall
	// ScaleLarge is for the full regeneration pass (minutes).
	ScaleLarge
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small", "":
		return ScaleSmall, nil
	case "large":
		return ScaleLarge, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (tiny|small|large)", s)
}

// RunOpts configures an experiment run.
type RunOpts struct {
	// Scale selects workload sizes.
	Scale Scale
	// Machine supplies the α–β constants and compute scaling; zero value
	// defaults to Cori-KNL.
	Machine costmodel.Machine
	// Threads is the intra-rank worker count for the local multiply and merge
	// kernels (core.Options.Threads). 0 or 1 keeps the kernels serial, the
	// configuration all published figure shapes use.
	Threads int
	// Pipeline overlaps stage broadcasts with local compute
	// (core.Options.Pipeline). Off keeps the published figure shapes — the
	// strictly staged schedule — byte-identical.
	Pipeline bool
	// Format selects the in-memory block storage (core.Options.Format):
	// csc, dcsc, or the per-block auto heuristic. The zero value is auto,
	// the default; output values and communication volume are identical
	// for all three.
	Format spmat.Format
	// SparseComm selects the column-subset A-broadcast path
	// (core.Options.SparseComm): off, auto, or on. Off — the zero value —
	// keeps the published figure shapes byte-identical.
	SparseComm mpi.SparseMode
	// Kernel pins the local-multiply kernel (core.Options.Kernel). The zero
	// value is the paper's unsorted-hash kernel. Output values are identical
	// for every kernel. The kernel ablations (fig15, table7) ignore it.
	Kernel localmm.Kernel
	// Merger pins the layer/fiber merge strategy (core.Options.Merger); the
	// kernel ablations ignore it too.
	Merger localmm.Merger
	// Channels is the number of outstanding overlap channels the pipelined
	// schedule may hide behind (core.Options.Channels); 0 means 1.
	Channels int
	// Algo restricts the spmm experiment's algorithm sweep to one family
	// ("summa" | "cola" | "innerabc"; empty sweeps all three).
	Algo string
	// Replication restricts the spmm experiment's 1.5D replication sweep to
	// one factor (0 sweeps every c with c² | p).
	Replication int
	// Verbose experiments may add extra tables.
	Verbose bool
}

// commAmplification restores the paper's communication-to-computation
// balance on the scaled-down simulation: Cori-KNL processes compute SpGEMM
// an order of magnitude faster relative to their network than the Go
// kernels on this host do relative to the unmodified α–β constants.
// Multiplying β by this factor puts the bandwidth share of the total back
// into the paper's regime so the layer/batch tradeoffs the figures study
// are visible. Latency (α) stays physical. See EXPERIMENTS.md,
// "Calibration".
func commAmplification(sc Scale) float64 {
	switch sc {
	case ScaleTiny:
		return 32
	case ScaleLarge:
		return 8
	default:
		return 16
	}
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Machine.Name == "" {
		o.Machine = costmodel.CoriKNL()
	}
	o.Machine = o.Machine.ScaledBeta(commAmplification(o.Scale))
	return o
}

// scaleUp returns the next larger workload scale; the strong-scaling
// experiments use it so per-rank kernels at the biggest process counts are
// still microseconds-to-milliseconds and timing noise (goroutine
// preemption, GC) stays small relative to the signal.
func scaleUp(sc Scale) Scale {
	switch sc {
	case ScaleTiny:
		return ScaleSmall
	default:
		return ScaleLarge
	}
}

// Workload names match Table V; each is a deterministic scaled analogue.
const (
	WLEukarya       = "Eukarya"
	WLFriendster    = "Friendster"
	WLIsolatesSmall = "Isolates-small"
	WLIsolates      = "Isolates"
	WLMetaclust50   = "Metaclust50"
	WLRiceKmers     = "Rice-kmers"
	WLMetaclust20m  = "Metaclust20m"
)

// WorkloadNames lists the Table V analogues in the paper's order.
var WorkloadNames = []string{
	WLEukarya, WLRiceKmers, WLMetaclust20m, WLIsolatesSmall,
	WLFriendster, WLIsolates, WLMetaclust50,
}

// Workload builds the named matrix at the given scale. Square matrices are
// studied as A·A, rectangular ones as A·Aᵀ, exactly as in Table V. Square
// workloads are randomly symmetrically permuted so that R-MAT hub vertices
// spread across process blocks, matching the random-permutation load
// balancing CombBLAS and HipMCL apply to their inputs.
func Workload(name string, sc Scale) (*spmat.CSC, error) {
	// bump raises the R-MAT scale (matrix side) per workload scale.
	bump := map[Scale]int{ScaleTiny: 0, ScaleSmall: 2, ScaleLarge: 4}[sc]
	switch name {
	case WLEukarya:
		// Smallest protein network: dense-ish square with strong expansion.
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(7+bump, 8, 101), 201), nil
	case WLFriendster:
		// Social network: unweighted, symmetric, heavy-tailed.
		return genmat.SymmetricPermute(genmat.RMAT(genmat.RMATConfig{
			Scale: 8 + bump, EdgeFactor: 10, Symmetrize: true, Seed: 102,
		}), 202), nil
	case WLIsolatesSmall:
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(8+bump, 12, 103), 203), nil
	case WLIsolates:
		// The densest big protein network (cf highest in Table V).
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(9+bump, 14, 104), 204), nil
	case WLMetaclust50:
		// Bigger but sparser than Isolates → communication-bound sooner
		// (the paper's efficiency discussion, Fig 9).
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(9+bump, 5, 105), 205), nil
	case WLRiceKmers:
		// Hypersparse reads×k-mers with ≈2 nnz per k-mer column and
		// nnz(AAᵀ) ≈ nnz(A) → b=1, communication dominated (Fig 11).
		reads := int32(1) << (7 + bump)
		return genmat.Kmer(genmat.KmerConfig{
			Reads: reads, Kmers: reads * 64, KmersPerRead: 24, Overlap: 0.08, Seed: 106,
		}), nil
	case WLMetaclust20m:
		// Denser overlap structure: AAᵀ expands strongly (Fig 10 needs
		// batching at low concurrency).
		reads := int32(1) << (8 + bump)
		return genmat.Kmer(genmat.KmerConfig{
			Reads: reads, Kmers: reads * 8, KmersPerRead: 28, Overlap: 0.45, Seed: 107,
		}), nil
	}
	return nil, fmt.Errorf("experiments: unknown workload %q", name)
}

// PairFor returns the (A, B) operands studied for a workload: (A, A) for
// square matrices and (A, Aᵀ) for rectangular ones.
func PairFor(a *spmat.CSC) (*spmat.CSC, *spmat.CSC) {
	if a.Rows == a.Cols {
		return a, a
	}
	return a, spmat.Transpose(a)
}
