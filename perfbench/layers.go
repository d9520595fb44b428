package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// counts are the deterministic quantities of one distributed multiply that
// the traced run must reproduce exactly: flops, the executed batch count,
// and messages, payload bytes and modeled communication seconds over the
// paper's seven steps.
type counts struct {
	flops   int64
	batches int
	msgs    int64
	bytes   int64
	comm    float64
}

// matches reports whether two runs of one configuration agree on every
// count. Modeled seconds are compared only on the staged schedule: with
// Pipeline on, the exposed share depends on measured compute time.
func (c counts) matches(o counts, pipelined bool) bool {
	if pipelined {
		c.comm, o.comm = 0, 0
	}
	return c == o
}

// countsOf summarizes per-rank results and meters the way the public Stats
// does (spgemm.Cluster.stats): comm seconds are max over ranks per step,
// scaled by the machine's CommScale, summed in step order.
func countsOf(results []*core.Result, sum *mpi.Summary, commScale float64) counts {
	c := counts{batches: results[0].Batches}
	for _, r := range results {
		c.flops += r.LocalFlops
	}
	for _, step := range core.Steps {
		s := sum.Step(step)
		c.msgs += s.Messages
		c.bytes += s.Bytes
		c.comm += s.CommSeconds * commScale
	}
	return c
}

// layerRun is one traced operation: the product, the wall time spent in
// each layer's calls, and what the ranks' meters recorded.
type layerRun struct {
	c *spmat.CSC
	counts
	// wall is the whole operation; distribute, summa and assemble are the
	// timed layer calls and unattributed the remainder, so the four add up
	// to wall exactly.
	wall, distribute, summa, assemble, unattributed float64
	// assembleAlloc is the heap bytes AssembleResults allocated.
	assembleAlloc float64
	// wait is the mean over ranks of BatchedSUMMA3D wall time minus that
	// rank's metered compute.
	wait float64
	// compute and work are the meters' compute seconds and work units per
	// category, summed over ranks.
	compute map[string]float64
	work    map[string]int64
	// modelPeak is the modeled PeakMemBytes summed over ranks.
	modelPeak int64
	// liveMax is, with the memory probe on, the largest live heap seen at a
	// batch hook minus the live heap before the operation began.
	liveMax float64
}

// runLayers multiplies a·b under rc by calling each layer's public entry
// points directly, as core.Multiply does, timing every call:
//
//   - grid.New on every rank, then a barrier;
//   - core.Setup on every rank, serialized under the run's compute gate so
//     the per-rank times add up to the phase's wall time, then a barrier;
//   - (*core.Proc).BatchedSUMMA3D on every rank;
//   - core.AssembleResults on the host.
//
// The grid phase ends at the earliest exit from the barrier after grid.New;
// the setups all start after it and end before the second barrier releases
// anyone, and every BatchedSUMMA3D starts after that, so the timed parts are
// disjoint and distribute + summa + assemble never exceeds wall.
// With probe set, rank 0's batch hook forces a GC after every batch and
// records the live heap; the hook returns nil, so the product is unchanged.
func runLayers(a, b *spmat.CSC, rc core.RunConfig, commScale float64, probe bool) (*layerRun, error) {
	var base, liveMax float64
	if probe {
		base = liveHeapAfterGC()
	}
	p := rc.P
	results := make([]*core.Result, p)
	errs := make([]error, p)
	setupSec := make([]float64, p)
	summaSec := make([]float64, p)
	exitGrid := make([]time.Time, p)
	start := time.Now()
	meters := mpi.Run(p, rc.Cost, func(c *mpi.Comm) {
		r := c.Rank()
		g, err := grid.New(c, rc.L)
		if err != nil {
			// The grid shape is the same on every rank, so every rank
			// returns here together.
			errs[r] = err
			return
		}
		c.Barrier()
		exitGrid[r] = time.Now()
		var proc *core.Proc
		setupSec[r] = c.MeasureCompute(func() { proc, err = core.Setup(g, a, b, rc.Opts) })
		if err != nil {
			errs[r] = err // shape errors, equal on every rank
			return
		}
		c.Barrier()
		var hook core.BatchHook
		if probe && r == 0 {
			hook = func(int, []int32, *spmat.CSC) *spmat.CSC {
				liveMax = max(liveMax, liveHeapAfterGC())
				return nil
			}
		}
		t0 := time.Now()
		results[r], errs[r] = proc.BatchedSUMMA3D(hook)
		summaSec[r] = secs(time.Since(t0))
	})
	runEnd := time.Now()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}

	rt0 := readRuntime()
	c, err := core.AssembleResults(results, a.Rows, b.Cols)
	assembleEnd := time.Now()
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	lr := &layerRun{
		c:             c,
		counts:        countsOf(results, mpi.Summarize(meters), commScale),
		wall:          secs(assembleEnd.Sub(start)),
		assemble:      secs(assembleEnd.Sub(runEnd)),
		assembleAlloc: readRuntime().sub(rt0).allocBytes,
		compute:       map[string]float64{},
		work:          map[string]int64{},
	}
	gridEnd := exitGrid[0]
	for _, t := range exitGrid {
		if t.Before(gridEnd) {
			gridEnd = t
		}
	}
	lr.distribute = secs(gridEnd.Sub(start))
	for r := 0; r < p; r++ {
		lr.distribute += setupSec[r]
		lr.summa = max(lr.summa, summaSec[r])
		lr.modelPeak += results[r].PeakMemBytes
		var rankCompute float64
		for _, cat := range meters[r].Categories() {
			s := meters[r].Step(cat)
			lr.compute[cat] += s.ComputeSeconds
			lr.work[cat] += s.WorkUnits
			rankCompute += s.ComputeSeconds
		}
		lr.wait += (summaSec[r] - rankCompute) / float64(p)
	}
	lr.unattributed = lr.wall - lr.distribute - lr.summa - lr.assemble
	if probe {
		lr.liveMax = liveMax - base
	}
	return lr, nil
}
