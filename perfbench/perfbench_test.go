package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	spgemm "repro"
	"repro/internal/apps"
	"repro/internal/genmat"
	"repro/internal/spmat"
)

// small is a protein-shaped pair on a 16-rank, 4-layer grid with a budget
// tight enough for several batches.
var small = batchSpec{
	p: 16, l: 4, memBytes: 1_200_000,
	gen: func(seed int64) (*spmat.CSC, *spmat.CSC) {
		a := spgemm.RandomProteinNetwork(8, 8, seed)
		return a, a
	},
}

func wrong(m *spmat.CSC) *spmat.CSC {
	w := m.Clone()
	w.Val[len(w.Val)/2] += 1
	return w
}

func TestTail(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(20 - i)
	}
	if v, p := tail(xs); v != 10 || p != 50 {
		t.Fatalf("tail of 1..20 = %v at p%v, want 10 at p50", v, p)
	}
	if v, p := tail([]float64{3, 1, 2}); v != 3 || p != 100 {
		t.Fatalf("tail of 3 samples = %v at p%v, want the max at p100", v, p)
	}
}

// TestLayersMatchClusterMultiply: the per-layer path computes the same
// product as spgemm.Cluster.Multiply, bit for bit, with equal counts, and
// its timed parts add up to its wall time.
func TestLayersMatchClusterMultiply(t *testing.T) {
	st, err := small.setup(3)
	if err != nil {
		t.Fatal(err)
	}
	cp := small.corePair(st)
	c, want, err := cp.untraced()
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(c, st.truth.first) || want.batches < 2 {
		t.Fatalf("setup: product differs from the warm-up run or batches=%d < 2", want.batches)
	}
	for _, probe := range []bool{false, true} {
		lr, err := runLayers(st.a, st.b, cp.rc, cp.commScale, probe)
		if err != nil {
			t.Fatal(err)
		}
		if !spgemm.Equal(lr.c, c) {
			t.Errorf("probe=%v: product differs from Cluster.Multiply", probe)
		}
		if lr.counts != want {
			t.Errorf("probe=%v: counts %+v, Cluster.Multiply %+v", probe, lr.counts, want)
		}
		if lr.unattributed < 0 {
			t.Errorf("probe=%v: layer times exceed the operation by %g s", probe, -lr.unattributed)
		}
		if sum := lr.distribute + lr.summa + lr.assemble + lr.unattributed; math.Abs(sum-lr.wall) > 1e-12 {
			t.Errorf("probe=%v: parts sum to %g s, wall %g s", probe, sum, lr.wall)
		}
		if probe && lr.liveMax <= 0 {
			t.Errorf("memory probe read no live heap")
		}
	}
}

// TestWrongReferenceFails is the non-vacuity check: with a deliberately
// wrong reference every operation counts as failed, on the end-to-end and
// the per-layer path; with the right one none does.
func TestWrongReferenceFails(t *testing.T) {
	st, err := small.setup(5)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	small.measure(o, st, 0, 0)
	if o.attempted == 0 || o.failed != 0 {
		t.Fatalf("right reference: %d of %d failed", o.failed, o.attempted)
	}
	good := st.truth
	for name, bad := range map[string]truth{
		"reference":     {ref: wrong(good.ref), first: good.first},
		"first product": {ref: good.ref, first: wrong(good.first)},
	} {
		st.truth = bad
		o := &outcome{}
		small.measure(o, st, 0, 0)
		if o.failed == 0 || o.failed != o.attempted {
			t.Errorf("wrong %s, end to end: %d of %d failed, want all", name, o.failed, o.attempted)
		}
		o = &outcome{}
		if err := measureLayers(o, small.corePair(st), nil, nil, time.Now()); err == nil {
			t.Errorf("wrong %s, per layer: no error although no traced op can succeed", name)
		}
		if o.failed == 0 {
			t.Errorf("wrong %s, per layer: no failure counted", name)
		}
	}
}

// TestServiceWrongReferenceFails: service-mixed decodes and checks every
// returned product, so a wrong reference, or a repeat that differs from the
// pair's first product, turns calls into failures.
func TestServiceWrongReferenceFails(t *testing.T) {
	st, err := setupMixed(7)
	if err != nil {
		t.Fatal(err)
	}
	defer st.d.stop()
	check := func(name string, wantFailed bool) {
		tr := st.drive(time.Now(), false)
		failed := 0
		for _, op := range tr.ops {
			if !op.ok {
				failed++
			}
		}
		if len(tr.ops) == 0 || (failed > 0) != wantFailed {
			t.Errorf("%s: %d of %d calls failed", name, failed, len(tr.ops))
		}
	}
	check("right reference", false)
	st.makeRef = func() apps.MultiplyFunc {
		return func(a, b *spmat.CSC, sr string) (*spmat.CSC, error) {
			c, err := apps.Serial()(a, b, sr)
			if err != nil || c.NNZ() == 0 {
				return c, err
			}
			return wrong(c), nil
		}
	}
	check("wrong reference", true)

	c := newCaller(st.d, false, time.Time{})
	if c.multiply(st.adj, st.adj, ""); !c.ops[0].ok {
		t.Fatalf("first call failed")
	}
	for k := range c.first {
		c.first[k] = "another product"
	}
	if c.multiply(st.adj, st.adj, ""); c.ops[1].ok {
		t.Errorf("a repeat that differs from the first product passed")
	}
}

// TestSessionMix: a session's first pass multiplies only pairs new to it,
// each a plan-cache miss, and its replay repeats them all as hits.
func TestSessionMix(t *testing.T) {
	d, err := startDaemon(svcP, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	c := newCaller(d, false, time.Time{})
	adj := genmat.RMAT(genmat.RMATConfig{Scale: 7, EdgeFactor: 8, Symmetrize: true, Seed: 3})
	if err := session(adj, c.multiply); err != nil {
		t.Fatal(err)
	}
	n, err := serviceCounters(d)
	if err != nil {
		t.Fatal(err)
	}
	half := len(c.ops) / 2
	if len(c.ops) < 6 || len(c.ops)%2 != 0 || n.misses != int64(half) || n.hits != int64(half) {
		t.Fatalf("%d calls, %d plan misses, %d hits: want a cold pass of misses and a replay of hits", len(c.ops), n.misses, n.hits)
	}
	for i, op := range c.ops {
		if !op.ok || op.fresh != (i < half) {
			t.Errorf("call %d: ok %v, fresh %v", i, op.ok, op.fresh)
		}
	}
}

// TestMetricsMatchBenchmarkJSON: the end-to-end run prints exactly the
// end_to_end metrics of BENCHMARK.json and the traced run exactly the
// per_layer ones, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		for name, run := range map[string]func() (*outcome, error){
			"batch":         func() (*outcome, error) { return runBatch(small, 9, 0, traced) },
			"service-mixed": func() (*outcome, error) { return runMixed(9, 0, traced) },
		} {
			o, err := run()
			if err != nil {
				t.Fatal(err)
			}
			var got []entry
			for _, m := range o.metrics {
				got = append(got, entry{m.Name, m.Unit})
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: printed %v\nBENCHMARK.json lists %v", name, traced, got, want)
			}
			if o.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, o.failed, o.attempted)
			}
		}
	}
}

// TestServiceOpsTimed: a traced call carries its client-timed latency,
// which covers its requests; a new pair's /plan misses the cache and its
// repeat's hits.
func TestServiceOpsTimed(t *testing.T) {
	st, err := setupMixed(8)
	if err != nil {
		t.Fatal(err)
	}
	defer st.d.stop()
	c := newCaller(st.d, true, time.Time{})
	m := sessionGraph(8, 1)
	for i := 0; i < 2; i++ {
		c.multiply(m, m, "")
	}
	for i, op := range c.ops {
		if !op.ok || op.load <= 0 || op.multiply <= 0 || op.lat < op.load+op.plan+op.multiply {
			t.Errorf("call %d %+v: failed or latency does not cover its requests", i, op)
		}
	}
	if c.ops[0].planHit || !c.ops[1].planHit {
		t.Errorf("plan hits %v, %v: want a miss, then a hit", c.ops[0].planHit, c.ops[1].planHit)
	}
}
