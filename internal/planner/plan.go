package planner

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/costmodel"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// DefaultSecPerWork converts abstract work units (flops, scanned and merged
// nonzeros) to modeled seconds — the same pinned rate the CI perf gate uses,
// so planner scores and gate scores live on one scale.
const DefaultSecPerWork = 1e-9

// DefaultImbalance scales mean-based per-rank estimates (the unmerged
// intermediate behind the batch decision and the peak-memory model) up to
// per-rank maxima. Input distributions are randomly permuted power-law
// matrices, whose per-rank load at the simulated grid sizes stays within a
// small factor of the mean.
const DefaultImbalance = 1.5

// Input configures a planning run.
type Input struct {
	// P is the total rank count. Required.
	P int
	// MemBytes is the aggregate memory budget M (0 = unconstrained, which
	// induces b = 1 everywhere).
	MemBytes int64
	// Machine supplies α, β, and the communication scale factor.
	Machine costmodel.Machine
	// BytesPerNnz is r, the modeled bytes per stored nonzero (default 24).
	BytesPerNnz int64
	// SecPerWork is the work-unit rate of the objective (default
	// DefaultSecPerWork).
	SecPerWork float64
	// Symbolic includes the distributed symbolic pass in every prediction
	// (the memory-constrained workflow always runs it).
	Symbolic bool
	// MaxBatches caps the induced batch count (0 = uncapped).
	MaxBatches int
	// SampleCols is the probe's symbolic sample size (0 =
	// DefaultSampleCols).
	SampleCols int
	// Imbalance scales mean-based per-rank estimates to maxima (0 =
	// DefaultImbalance).
	Imbalance float64
	// Layers restricts the candidate layer counts (nil = every l for which
	// p/l is a perfect square).
	Layers []int
	// Formats restricts the candidate storage formats (nil = csc, dcsc,
	// auto).
	Formats []spmat.Format
	// Pipelines restricts the schedule dimension (nil = staged and
	// pipelined).
	Pipelines []bool
	// SparseComms restricts the sparse-communication dimension (nil = off
	// only, so pre-knob plans and their rankings are unchanged).
	SparseComms []mpi.SparseMode
	// Channels lists the candidate overlap channel counts k for pipelined
	// configurations (nil = single-channel only, so pre-knob plans are
	// unchanged). Staged configurations ignore the axis.
	Channels []int
}

func (in Input) withDefaults() Input {
	if in.BytesPerNnz == 0 {
		in.BytesPerNnz = spmat.BytesPerNonzero
	}
	if in.SecPerWork == 0 {
		in.SecPerWork = DefaultSecPerWork
	}
	if in.Imbalance == 0 {
		in.Imbalance = DefaultImbalance
	}
	if in.Machine.Name == "" {
		in.Machine = costmodel.CoriKNL()
	}
	if len(in.Formats) == 0 {
		in.Formats = []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto}
	}
	if len(in.Pipelines) == 0 {
		in.Pipelines = []bool{false, true}
	}
	if len(in.SparseComms) == 0 {
		in.SparseComms = []mpi.SparseMode{mpi.SparseOff}
	}
	if len(in.Channels) == 0 {
		in.Channels = []int{1}
	}
	return in
}

// Plan is the ranked outcome of a planning run.
type Plan struct {
	// In echoes the (defaulted) inputs the decision was made under.
	In Input
	// Probe is the input statistics everything was predicted from.
	Probe *Probe
	// Candidates holds every evaluated configuration, best first (feasible
	// configurations strictly before infeasible ones).
	Candidates []Candidate

	qOf   map[int]int
	stats map[int]*gridStat
	// a, b are retained for the lazily-computed sparse-comm statistics
	// (computeSubsetStat) — only candidates with SparseComm != off need them.
	a, b *spmat.CSC
}

// LayersFor returns every layer count l for which p ranks form a grid with
// square layers, ascending.
func LayersFor(p int) []int {
	var out []int
	for l := 1; l <= p; l++ {
		if p%l == 0 && grid.ValidP(p, l) {
			out = append(out, l)
		}
	}
	return out
}

// New probes the pair (A, B) and evaluates the full configuration space for
// it, returning the ranked plan. The decision is deterministic: the probe
// samples on a fixed stride and ties rank by (layers, batches, format,
// schedule).
func New(a, b *spmat.CSC, in Input) (*Plan, error) {
	in = in.withDefaults()
	if in.P <= 0 {
		return nil, fmt.Errorf("planner: rank count %d", in.P)
	}
	layers := in.Layers
	if len(layers) == 0 {
		layers = LayersFor(in.P)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("planner: no valid layer count for p = %d (p/l must be a perfect square)", in.P)
	}
	pr, err := ProbePair(a, b, in.SampleCols)
	if err != nil {
		return nil, err
	}
	pl := &Plan{In: in, Probe: pr, qOf: make(map[int]int), stats: make(map[int]*gridStat), a: a, b: b}
	for _, l := range layers {
		q, err := grid.SideFor(in.P, l)
		if err != nil {
			return nil, fmt.Errorf("planner: layer count %d: %w", l, err)
		}
		pl.qOf[l] = q
		gs := computeGridStat(a, b, q, l)
		pl.stats[l] = gs
		for _, f := range in.Formats {
			for _, sm := range in.SparseComms {
				staged := pl.predict(gs, f, 0, sm)
				for _, pipe := range in.Pipelines {
					if !pipe {
						pl.Candidates = append(pl.Candidates, staged)
					} else if staged.Feasible {
						for _, k := range in.Channels {
							pl.Candidates = append(pl.Candidates, pl.applyOverlap(staged, k))
						}
					}
				}
			}
		}
	}
	sort.SliceStable(pl.Candidates, func(x, y int) bool {
		cx, cy := &pl.Candidates[x], &pl.Candidates[y]
		if cx.Feasible != cy.Feasible {
			return cx.Feasible
		}
		if cx.ModelSeconds != cy.ModelSeconds {
			return cx.ModelSeconds < cy.ModelSeconds
		}
		if cx.L != cy.L {
			return cx.L < cy.L
		}
		if cx.B != cy.B {
			return cx.B < cy.B
		}
		if cx.Format != cy.Format {
			return cx.Format < cy.Format
		}
		if cx.SparseComm != cy.SparseComm {
			return cx.SparseComm < cy.SparseComm
		}
		if cx.Pipeline != cy.Pipeline {
			return !cx.Pipeline
		}
		return cx.Channels < cy.Channels
	})
	return pl, nil
}

// qFor returns the per-layer grid side of a candidate layer count.
func (pl *Plan) qFor(l int) int { return pl.qOf[l] }

// AllreduceShare returns the modeled cost of the symbolic step's four
// blocking Allreduces (three footprint maxima plus the batch agreement) —
// the share of the Symbolic step's communication the pipelined schedule can
// never hide. Exported so the oracle comparison applies the identical
// overlap input.
func (pl *Plan) AllreduceShare() float64 {
	if !pl.In.Symbolic {
		return 0
	}
	cm := mpi.CostModel{AlphaSec: pl.In.Machine.AlphaSec, BetaSecPerByte: pl.In.Machine.BetaSecPerByte}
	return pl.In.Machine.CommScale * 4 * cm.AllreduceCost(pl.In.P, 8)
}

// Evaluate predicts one explicit configuration, pinning its batch count
// instead of inducing it from the memory model (cfg.B ≤ 0 induces). The
// layer count must be one the plan enumerated. Tests compare these
// predictions against the meters of real runs, and the oracle comparison
// uses them to show predicted-vs-measured breakdowns for arbitrary swept
// points.
func (pl *Plan) Evaluate(cfg Config) (Candidate, error) {
	gs, ok := pl.stats[cfg.L]
	if !ok {
		return Candidate{}, fmt.Errorf("planner: layer count %d was not enumerated", cfg.L)
	}
	c := pl.predict(gs, cfg.Format, cfg.B, cfg.SparseComm)
	if cfg.Pipeline {
		c = pl.applyOverlap(c, cfg.Channels)
	}
	return c, nil
}

// Best returns the top-ranked feasible candidate, or nil when the space is
// entirely infeasible under the budget.
func (pl *Plan) Best() *Candidate {
	if len(pl.Candidates) == 0 || !pl.Candidates[0].Feasible {
		return nil
	}
	return &pl.Candidates[0]
}

func itoa(v int) string { return strconv.Itoa(v) }
