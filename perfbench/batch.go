package main

import (
	"fmt"
	"time"

	spgemm "repro"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/spmat"
)

// batchSpec is a batch workload: one A·B pair multiplied by
// spgemm.Cluster.Multiply, back to back.
type batchSpec struct {
	p, l     int
	memBytes int64
	// gen makes the operands from the seed.
	gen func(seed int64) (a, b *spmat.CSC)
}

var proteinMembound = batchSpec{
	p: 16, l: 4, memBytes: 40_000_000,
	gen: func(seed int64) (*spmat.CSC, *spmat.CSC) {
		a := spgemm.RandomProteinNetwork(11, 12, seed)
		return a, a
	},
}

var kmersHypersparse = batchSpec{
	p: 64, l: 16,
	gen: func(seed int64) (*spmat.CSC, *spmat.CSC) {
		a := spgemm.RandomKmerMatrix(1<<12, 1<<18, 24, 0.08, seed)
		return a, spgemm.Transpose(a)
	},
}

// batchState is one set-up of a batch workload.
type batchState struct {
	a, b *spmat.CSC
	// truth holds the MultiplySerial product and the warm-up distributed
	// product, which every later product must equal bit for bit.
	truth     truth
	genSec    float64
	serialSec float64
}

func (s batchSpec) cluster() *spgemm.Cluster { return spgemm.NewCluster(s.p, s.l) }

func (s batchSpec) options() spgemm.Options { return spgemm.Options{MemBytes: s.memBytes} }

// runConfig is the core configuration spgemm.Cluster.Multiply builds for
// s.options() on s.cluster() (the Cori-KNL machine model, default knobs).
func (s batchSpec) runConfig() core.RunConfig {
	return core.RunConfig{P: s.p, L: s.l, Cost: costmodel.CoriKNL().Cost(), Opts: core.Options{MemBytes: s.memBytes}}
}

func (s batchSpec) setup(seed int64) (*batchState, error) {
	st := &batchState{}
	t0 := time.Now()
	st.a, st.b = s.gen(seed)
	st.genSec = secs(time.Since(t0))
	t0 = time.Now()
	st.truth.ref = spgemm.MultiplySerial(st.a, st.b, nil)
	st.serialSec = secs(time.Since(t0))
	var err error
	st.truth.first, _, err = s.cluster().Multiply(st.a, st.b, s.options())
	if err != nil {
		return nil, fmt.Errorf("warm-up multiply: %w", err)
	}
	return st, nil
}

func runBatch(spec batchSpec, seed int64, dur time.Duration, traced bool) (*outcome, error) {
	var gen, serial []float64
	st, setupSec, err := repeatSetup(func() (*batchState, error) {
		st, err := spec.setup(seed)
		if err == nil {
			gen, serial = append(gen, st.genSec), append(serial, st.serialSec)
		}
		return st, err
	}, func(*batchState) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if !traced {
		spec.measure(o, st, dur, setupSec)
		return o, nil
	}
	// The service rounds run first and the core layers fill the rest of
	// dur; the service metrics print last, as BENCHMARK.json lists them.
	deadline := time.Now().Add(dur)
	svc := &outcome{}
	if err := probeService(svc, st.a, st.b, spec.p, spec.memBytes); err != nil {
		return nil, err
	}
	if err := measureLayers(o, spec.corePair(st), gen, serial, deadline); err != nil {
		return nil, err
	}
	o.attempted += svc.attempted
	o.failed += svc.failed
	o.metrics = append(o.metrics, svc.metrics...)
	return o, nil
}

// measure is the end-to-end phase: spgemm.Cluster.Multiply back to back for
// dur (at least once), every product checked.
func (s batchSpec) measure(o *outcome, st *batchState, dur time.Duration, setupSec float64) {
	runtime0 := readRuntime()
	start := time.Now()
	var lat []float64
	for len(lat) == 0 || time.Since(start) < dur {
		t0 := time.Now()
		c, _, err := s.cluster().Multiply(st.a, st.b, s.options())
		lat = append(lat, secs(time.Since(t0)))
		o.count(err == nil && st.truth.ok(c))
	}
	wall := secs(time.Since(start))
	endToEnd(o, lat, wall, readRuntime().sub(runtime0), setupSec)
}

// corePair is the state's pair for the per-layer phase, whose untraced
// multiply is spgemm.Cluster.Multiply.
func (s batchSpec) corePair(st *batchState) corePair {
	return corePair{
		a: st.a, b: st.b, rc: s.runConfig(), commScale: costmodel.CoriKNL().CommScale,
		truth: st.truth,
		untraced: func() (*spmat.CSC, counts, error) {
			c, stats, err := s.cluster().Multiply(st.a, st.b, s.options())
			if err != nil {
				return nil, counts{}, err
			}
			return c, statsCounts(stats), nil
		},
	}
}

// statsCounts reads the counts from the public Stats.
func statsCounts(st *spgemm.Stats) counts {
	c := counts{flops: st.Flops, batches: st.Batches}
	for _, step := range spgemm.StepNames() {
		s := st.Steps[step]
		c.msgs += s.Messages
		c.bytes += s.Bytes
		c.comm += s.CommSeconds
	}
	return c
}

// corePair is what the per-layer phase multiplies and checks against.
type corePair struct {
	a, b      *spmat.CSC
	rc        core.RunConfig
	commScale float64
	truth     truth
	// untraced runs the same multiply through the entry point the
	// end-to-end run uses.
	untraced func() (*spmat.CSC, counts, error)
}

// probeEvery spaces the memory-probe operations: the forced GCs make them
// slow, so they are kept out of the layer times and run every few rounds.
const probeEvery = 4

// measureLayers alternates, until deadline, an untraced multiply, a traced
// one (runLayers), a serial one, and every probeEvery rounds a traced one
// with the memory probe. Every product is checked: the traced ones must
// equal the untraced product bit for bit with equal counts.
func measureLayers(o *outcome, cp corePair, genSec, serialSec []float64, deadline time.Time) error {
	var (
		untracedLat, tracedLat          []float64
		dist, summa, asm, unattr, alloc []float64
		wait                            []float64
		compute                         = map[string][]float64{}
		want                            counts
		last                            *layerRun
		liveMax                         float64
		rt                              rtSnap
		rounds                          int
		pipelined                       = cp.rc.Opts.Pipeline
	)
	for rounds == 0 || time.Now().Before(deadline) {
		r0 := readRuntime()
		t0 := time.Now()
		c, got, err := cp.untraced()
		untracedLat = append(untracedLat, secs(time.Since(t0)))
		rt.addTo(readRuntime().sub(r0))
		if rounds == 0 {
			want = got
		}
		o.count(err == nil && got.matches(want, pipelined) && cp.truth.ok(c))

		lr, err := runLayers(cp.a, cp.b, cp.rc, cp.commScale, false)
		ok := err == nil && lr.counts.matches(want, pipelined) && cp.truth.ok(lr.c)
		o.count(ok)
		if ok {
			if lr.unattributed < 0 {
				return fmt.Errorf("layer times %.6f s exceed the traced operation's %.6f s", lr.wall-lr.unattributed, lr.wall)
			}
			last = lr
			tracedLat = append(tracedLat, lr.wall)
			dist = append(dist, lr.distribute)
			summa = append(summa, lr.summa)
			asm = append(asm, lr.assemble)
			unattr = append(unattr, lr.unattributed)
			alloc = append(alloc, lr.assembleAlloc)
			wait = append(wait, lr.wait)
			for cat, sec := range lr.compute {
				compute[cat] = append(compute[cat], sec)
			}
		}

		t0 = time.Now()
		spgemm.MultiplySerial(cp.a, cp.b, nil)
		serialSec = append(serialSec, secs(time.Since(t0)))

		if rounds%probeEvery == 0 {
			pr, err := runLayers(cp.a, cp.b, cp.rc, cp.commScale, true)
			ok := err == nil && pr.counts.matches(want, pipelined) && cp.truth.ok(pr.c)
			o.count(ok)
			if ok {
				liveMax = max(liveMax, pr.liveMax)
			}
		}
		rounds++
	}
	if last == nil {
		return fmt.Errorf("no traced operation succeeded")
	}
	n := fmt.Sprintf("mean of %d traced ops", len(tracedLat))
	catMean := func(cats ...string) float64 {
		var t float64
		for _, cat := range cats {
			t += mean(compute[cat])
		}
		return t
	}
	o.add("genmat.gen_s", median(genSec), "s", "median over set-ups")
	o.add("core.distribute_s", mean(dist), "s", n)
	o.add("core.summa_s", mean(summa), "s", n)
	o.add("core.assemble_s", mean(asm), "s", n)
	o.add("core.assemble_alloc_bytes", mean(alloc), "B", n)
	o.add("core.unattributed_s", mean(unattr), "s", n)
	o.add("core.traced_op_s", mean(tracedLat), "s", n+"; the four parts above sum to it")
	o.add("core.trace_overhead_s", median(tracedLat)-median(untracedLat), "s",
		fmt.Sprintf("traced p50 %.4f s minus untraced p50 %.4f s", median(tracedLat), median(untracedLat)))
	o.add("core.batches", float64(want.batches), "count", "")
	serial := median(serialSec)
	o.add("core.overhead_vs_serial", median(untracedLat)/serial, "ratio", "untraced p50 / localmm.serial_s")
	mult := catMean(core.StepLocalMult)
	o.add("localmm.multiply_s", mult, "s", n+", summed over ranks")
	o.add("localmm.flops", float64(want.flops), "count", "")
	o.add("localmm.flops_per_s", float64(want.flops)/mult, "1/s", "")
	o.add("localmm.merge_layer_s", catMean(core.StepMergeLayer), "s", n+", summed over ranks")
	o.add("localmm.merge_fiber_s", catMean(core.StepMergeFiber), "s", n+", summed over ranks")
	o.add("localmm.merge_work", float64(last.work[core.StepMergeLayer]+last.work[core.StepMergeFiber]), "count", "work units")
	o.add("localmm.symbolic_s", catMean(core.StepSymbolic), "s", n+", summed over ranks")
	o.add("localmm.extract_assemble_s", catMean(core.StepExtract, core.StepAssemble), "s", n+", summed over ranks")
	o.add("localmm.serial_s", serial, "s", fmt.Sprintf("median of %d", len(serialSec)))
	o.add("mpi.msgs", float64(want.msgs), "count", "seven steps, summed over ranks")
	o.add("mpi.bytes", float64(want.bytes), "B", "seven steps, summed over ranks")
	commNote := "seven steps, Cori-KNL model"
	if pipelined {
		commNote += "; exposed share, which varies with measured compute under the pipelined plan"
	}
	o.add("mpi.modeled_comm_s", want.comm, "s", commNote)
	o.add("mpi.wait_s", mean(wait), "s", n+", mean over ranks")
	o.add("runtime.gc_cpu_frac", rt.gcCPU/rt.totalCPU, "frac", "over the untraced ops")
	o.add("runtime.gc_cycles_per_op", rt.autoGCs/float64(len(untracedLat)), "count", "over the untraced ops")
	peak := float64(last.modelPeak)
	o.add("core.live_heap_max_bytes", liveMax, "B", "above the pre-op live heap, forced GC at each batch")
	o.add("core.model_peak_bytes", peak, "B", "PeakMemBytes summed over ranks")
	o.add("core.heap_over_model", liveMax/peak, "ratio", "")
	overBudget, note := 0.0, "no budget"
	if mem := cp.rc.Opts.MemBytes; mem > 0 {
		overBudget, note = peak/float64(mem), fmt.Sprintf("of MemBytes %d", mem)
	}
	o.add("core.model_over_budget", overBudget, "ratio", note)
	return nil
}
