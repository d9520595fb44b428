// Command mtxinfo prints Table V style statistics for a MatrixMarket file:
// shape, nonzeros, the nonzeros and flops of its self-product (A·A or A·Aᵀ),
// compression factor, and the batch counts a given memory budget would need
// on a given grid (the symbolic decision, Eq 2 and Alg 3).
//
// With -grid it additionally reports per-block hypersparsity: how the matrix
// distributes onto a q×q×l process grid, the non-empty columns and
// nnz/column of the local blocks, their CSC vs DCSC footprints, and which
// storage format the auto heuristic would pick per block.
//
// With -plan it runs the analytical autotuner for the self-product: the
// ranked configurations (layers × batches × format × pipeline × overlap
// channels) with their predicted per-step costs on the chosen machine model,
// under the -mem budget. The local kernel is not part of the plan: every
// configuration runs the paper's sort-free hash kernel and hash merge.
//
// With -plan -trace out.json it additionally renders the winning candidate's
// predicted schedule as a Chrome trace-event timeline: one comm, compute,
// and hidden span per paper step, so the plan the autotuner argues from can
// be eyeballed in chrome://tracing before anything runs.
//
// Usage:
//
//	mtxinfo graph.mtx
//	mtxinfo -mem 1e9 -procs 64 -layers 4 graph.mtx
//	mtxinfo -grid 2x2x16 reads.mtx
//	mtxinfo -plan -machine knl -p 1024 -mem 4GB graph.mtx
//	mtxinfo -plan -trace plan.json graph.mtx
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/distmat"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/spmat"
)

func main() {
	var (
		memStr  = flag.String("mem", "", "aggregate memory budget in bytes, with optional suffix: 4GB, 512MB, 1e9 (empty = unconstrained)")
		procs   = flag.Int("procs", 64, "process count for the batch estimate")
		pFlag   = flag.Int("p", 0, "process count for -plan (0 = use -procs)")
		layers  = flag.Int("layers", 4, "layer count for the batch estimate")
		gridSh  = flag.String("grid", "", "per-block hypersparsity report for a RxCxL process grid, e.g. 2x2x16 (R must equal C)")
		plan    = flag.Bool("plan", false, "run the analytical autotuner for the self-product and print the ranked configurations with per-step predicted costs")
		machine = flag.String("machine", "knl", "with -plan: machine model (knl | haswell | knl-ht | local)")
		trace   = flag.String("trace", "", "with -plan: write the winning candidate's predicted schedule as Chrome trace-event JSON to this path")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mtxinfo [-mem B -procs P -layers L] [-plan -machine M -p P] file.mtx")
		os.Exit(2)
	}
	mem, err := parseBytes(*memStr)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	a, err := spmat.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	st := genmat.Collect(flag.Arg(0), a)
	fmt.Println(genmat.StatsHeader())
	fmt.Println(st.String())
	fmt.Printf("\nproduct studied: %s\n", st.Squared)
	fmt.Printf("output growth nnz(C)/nnz(A): %.2f\n", float64(st.NnzC)/float64(st.NnzA))
	fmt.Printf("input memory (r=24 B/nnz):   %.1f MB\n", float64(st.NnzA*24)/1e6)
	fmt.Printf("output memory:               %.1f MB\n", float64(st.NnzC*24)/1e6)
	fmt.Printf("worst-case intermediates:    %.1f MB (flops bound, Eq 1)\n", float64(st.Flops*24)/1e6)

	// The pair operand of the studied self-product: A for square inputs,
	// Aᵀ for rectangular ones (Table V's convention), shared by every
	// report below.
	b := a
	if a.Rows != a.Cols {
		b = spmat.Transpose(a)
	}

	if mem > 0 {
		memC := 24 * localmm.Flops(a, b)
		lower := core.BatchLowerBound(memC, a.NNZ(), b.NNZ(), mem, 24)
		fmt.Printf("\nwith M = %.2e bytes on a %d-process, %d-layer grid:\n", float64(mem), *procs, *layers)
		fmt.Printf("  batch lower bound (Eq 2, perfectly balanced): %d\n", lower)
		if lower > 1<<20 {
			fmt.Println("  (inputs alone exceed the budget)")
		}
	}

	if *plan {
		m, err := costmodel.ByName(*machine)
		if err != nil {
			fatal(err)
		}
		p := *pFlag
		if p <= 0 {
			p = *procs
		}
		pl, err := planner.New(a, b, planner.Input{
			P: p, MemBytes: mem, Machine: m, Symbolic: mem > 0,
			Channels: []int{1, 2},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(pl.Report())
		if *trace != "" {
			if err := writePlanTrace(*trace, pl); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote predicted-schedule trace to %s (open in chrome://tracing)\n", *trace)
		}
	} else if *trace != "" {
		fatal(fmt.Errorf("-trace needs -plan (it renders the planner's predicted schedule)"))
	}

	if *gridSh != "" {
		q, l, err := parseGrid(*gridSh)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nper-block hypersparsity on the %dx%dx%d grid (p = %d):\n", q, q, l, q*q*l)
		reportBlocks("A-style blocks (Ã of A)", aBlocks(a, q, l))
		reportBlocks("B-style blocks (B̃ of the pair operand)", bBlocks(b, q, l))
	}
}

// writePlanTrace synthesizes a one-rank timeline from the winning
// candidate's per-step predictions: for each paper step, an exposed comm
// span (the predicted critical-path communication), a compute span (the
// step's work share of one rank at the plan's work rate), and a hidden span
// for whatever the overlap model predicts the pipelined schedule hides. The
// result is a *predicted* schedule — compare it against a measured
// `spgemm-bench -trace` timeline of the same shape.
func writePlanTrace(path string, pl *planner.Plan) error {
	best := pl.Best()
	if best == nil {
		return fmt.Errorf("no feasible plan to trace")
	}
	rec := obs.NewRecorder(1)
	r := rec.Rank(0)
	p := float64(pl.In.P)
	for _, st := range best.Steps {
		if st.CommSeconds > 0 {
			r.Record(st.Step, obs.KindComm, st.CommSeconds, 0, 0, 0)
		}
		if st.WorkUnits > 0 {
			r.Record(st.Step, obs.KindCompute,
				float64(st.WorkUnits)/p*pl.In.SecPerWork, 0, 0, st.WorkUnits)
		}
		if st.HiddenSeconds > 0 {
			r.Record(st.Step, obs.KindHidden, st.HiddenSeconds, 0, 0, 0)
		}
	}
	return rec.WriteTraceFile(path)
}

// parseGrid parses "RxCxL" with R == C, rejecting trailing garbage.
func parseGrid(s string) (q, l int, err error) {
	var r, c int
	if _, err := fmt.Sscanf(s, "%dx%dx%d", &r, &c, &l); err != nil ||
		fmt.Sprintf("%dx%dx%d", r, c, l) != s {
		return 0, 0, fmt.Errorf("bad -grid %q (want RxCxL, e.g. 2x2x16)", s)
	}
	if r != c || r < 1 || l < 1 {
		return 0, 0, fmt.Errorf("bad -grid %q: the paper's grids are square per layer (R = C ≥ 1, L ≥ 1)", s)
	}
	return r, l, nil
}

// allBlocks extracts every (i, j, k) local block of one distribution.
func allBlocks(q, l int, local func(i, j, k int) *spmat.CSC) []*spmat.CSC {
	out := make([]*spmat.CSC, 0, q*q*l)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			for k := 0; k < l; k++ {
				out = append(out, local(i, j, k))
			}
		}
	}
	return out
}

// aBlocks extracts every local block of the A-style distribution.
func aBlocks(a *spmat.CSC, q, l int) []*spmat.CSC {
	d := distmat.NewADist(a.Rows, a.Cols, q, l)
	return allBlocks(q, l, func(i, j, k int) *spmat.CSC { return d.Local(a, i, j, k) })
}

// bBlocks extracts every local block of the B-style distribution.
func bBlocks(b *spmat.CSC, q, l int) []*spmat.CSC {
	d := distmat.NewBDist(b.Rows, b.Cols, q, l)
	return allBlocks(q, l, func(i, j, k int) *spmat.CSC { return d.Local(b, i, j, k) })
}

// reportBlocks prints the hypersparsity summary of one distribution's
// blocks: occupancy, nnz per occupied column, both storage footprints, and
// the auto heuristic's verdict.
func reportBlocks(title string, blocks []*spmat.CSC) {
	var (
		hyper                  int
		totNNZ, totNE, totCols int64
		cscBytes, dcscBytes    int64
		minOcc, maxOcc         = 1.0, 0.0
	)
	for _, blk := range blocks {
		ne := blk.NonEmptyCols()
		totNNZ += blk.NNZ()
		totNE += ne
		totCols += int64(blk.Cols)
		cscBytes += blk.MemBytes()
		dcscBytes += blk.ToDCSC().MemBytes()
		if spmat.Hypersparse(ne, blk.Cols) {
			hyper++
		}
		if blk.Cols > 0 {
			occ := float64(ne) / float64(blk.Cols)
			if occ < minOcc {
				minOcc = occ
			}
			if occ > maxOcc {
				maxOcc = occ
			}
		}
	}
	nnzPerCol := 0.0
	if totNE > 0 {
		nnzPerCol = float64(totNNZ) / float64(totNE)
	}
	fmt.Printf("  %s:\n", title)
	fmt.Printf("    blocks:                 %d (%d hypersparse: auto picks dcsc, %d stay csc)\n",
		len(blocks), hyper, len(blocks)-hyper)
	fmt.Printf("    column occupancy:       %.1f%% mean (%.1f%%–%.1f%% per block)\n",
		100*float64(totNE)/float64(max64(totCols, 1)), 100*minOcc, 100*maxOcc)
	fmt.Printf("    nnz / occupied column:  %.2f\n", nnzPerCol)
	fmt.Printf("    footprint (all blocks): csc %.1f KB, dcsc %.1f KB (%.2fx)\n",
		float64(cscBytes)/1e3, float64(dcscBytes)/1e3, float64(cscBytes)/float64(max64(dcscBytes, 1)))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// parseBytes parses a byte count with an optional decimal suffix (KB, MB,
// GB, TB, or their KiB/MiB/… binary forms, case-insensitive); a bare number
// may use any float syntax ("1e9"). Empty means zero.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	mult := 1.0
	for _, suf := range []struct {
		tag string
		f   float64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12}, {"B", 1},
	} {
		if strings.HasSuffix(upper, suf.tag) {
			mult = suf.f
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suf.tag))
			break
		}
	}
	v, err := strconv.ParseFloat(upper, 64)
	if err != nil {
		return 0, fmt.Errorf("bad -mem %q (want e.g. 4GB, 512MB, 1e9)", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("bad -mem %q: negative", s)
	}
	return int64(v * mult), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtxinfo:", err)
	os.Exit(1)
}
