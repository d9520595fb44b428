package planner

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/spmat"
)

// Choice is the serializable form of a planner decision: the winning
// configuration plus the two predictions callers act on (the ranking score
// and the per-rank memory reservation). A Choice is what a plan cache
// stores and what the serving API returns — it carries no pointers into the
// Plan that produced it, marshals to stable JSON, and converts back to a
// Config for execution.
type Choice struct {
	// L and B are the layer and batch counts. B echoes the planner's induced
	// batch count; under a memory budget the runtime re-derives the real
	// count with the distributed symbolic step, so B here is the prediction,
	// not a forced knob.
	L int `json:"layers"`
	B int `json:"batches"`
	// Format and SparseComm are the knobs' flag spellings ("csc", "auto", …).
	Format     string `json:"format"`
	Pipeline   bool   `json:"pipeline"`
	SparseComm string `json:"sparse_comm"`
	// Channels is k, the pipelined overlap channel count (0 means the
	// single-injection ledger; only k ≥ 2 is ever recorded, so choices
	// from older plans round-trip unchanged).
	Channels int `json:"channels,omitempty"`
	// ModelSeconds is the configuration's predicted modeled critical path —
	// the planner's ranking objective.
	ModelSeconds float64 `json:"model_seconds"`
	// PeakMemBytesPerRank is the predicted per-rank memory high-water mark;
	// an admission scheduler multiplies it by P for a job's reservation.
	PeakMemBytesPerRank int64 `json:"peak_mem_bytes_per_rank"`
}

// Choice converts a ranked candidate into its serializable form.
func (c *Candidate) Choice() Choice {
	return Choice{
		L:                   c.L,
		B:                   c.B,
		Format:              c.Format.String(),
		Pipeline:            c.Pipeline,
		SparseComm:          c.SparseComm.String(),
		Channels:            c.Channels,
		ModelSeconds:        c.ModelSeconds,
		PeakMemBytesPerRank: c.PeakMemBytesPerRank,
	}
}

// Config converts the choice back into an executable configuration,
// re-parsing the knob spellings (an error means the Choice was built or
// transported incorrectly, e.g. hand-edited JSON).
func (ch Choice) Config() (Config, error) {
	f, err := spmat.ParseFormat(ch.Format)
	if err != nil {
		return Config{}, fmt.Errorf("planner: choice format: %w", err)
	}
	sm, err := mpi.ParseSparseMode(ch.SparseComm)
	if err != nil {
		return Config{}, fmt.Errorf("planner: choice sparse comm: %w", err)
	}
	return Config{L: ch.L, B: ch.B, Format: f, Pipeline: ch.Pipeline, SparseComm: sm, Channels: ch.Channels}, nil
}

// String renders the choice the way Config does, plus the score.
func (ch Choice) String() string {
	cfg, err := ch.Config()
	if err != nil {
		return fmt.Sprintf("invalid choice: %v", err)
	}
	return fmt.Sprintf("%s (model %.3gs, peak %dB/rank)", cfg.String(), ch.ModelSeconds, ch.PeakMemBytesPerRank)
}

// CacheKey renders a deterministic key for a planning decision: the operand
// fingerprints plus every Input knob that can change the ranking. Two calls
// with content-identical operands and identical knobs produce identical
// keys, so a cache hit is guaranteed to return the decision the planner
// would have made — the probe and the full candidate sweep can be skipped.
//
// The Input is canonicalized (withDefaults) before rendering, so an
// explicitly-passed default and an omitted field key identically.
func CacheKey(fpA, fpB string, in Input) string {
	in = in.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "a=%s|b=%s|p=%d|mem=%d", fpA, fpB, in.P, in.MemBytes)
	fmt.Fprintf(&b, "|m=%s,%g,%g,%g,%g", in.Machine.Name,
		in.Machine.AlphaSec, in.Machine.BetaSecPerByte, in.Machine.CommScale, in.Machine.ComputeScale)
	fmt.Fprintf(&b, "|r=%d|spw=%g|sym=%t|maxb=%d|sample=%d|imb=%g",
		in.BytesPerNnz, in.SecPerWork, in.Symbolic, in.MaxBatches, in.SampleCols, in.Imbalance)
	fmt.Fprintf(&b, "|l=%v", in.Layers)
	b.WriteString("|f=")
	for i, f := range in.Formats {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.String())
	}
	fmt.Fprintf(&b, "|pipe=%v", in.Pipelines)
	b.WriteString("|sc=")
	for i, sm := range in.SparseComms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sm.String())
	}
	fmt.Fprintf(&b, "|ch=%v", in.Channels)
	return b.String()
}
