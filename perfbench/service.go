package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spgemm "repro"
	"repro/internal/apps"
	"repro/internal/apps/bfs"
	"repro/internal/apps/mcl"
	"repro/internal/apps/tricount"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/service"
	"repro/internal/spmat"
)

// service-mixed: an in-process spgemmd on a loopback server, driven by a
// closed loop of svcClients clients. The traffic is the repository's own
// service callers: each client runs sessions of examples/serviceclient —
// tricount.CountVia, bfs.MultiSourceVia and mcl.ClusterVia on a fresh graph,
// then the same three again — and every operation is one
// Client.MultiplyMatrices call (/load of both operands, then /multiply).
// The mix of fresh and repeated pairs is therefore the callers' own: every
// call of a session's first pass carries new content and misses the plan
// cache, every call of the replay hits it.
const (
	svcP       = 16
	svcClients = 2
	// svcScale is the R-MAT scale of the session graphs.
	svcScale = 10
	// mclIters is the iteration bound examples/serviceclient gives MCL.
	mclIters = 20
)

// sessionSources are the BFS sources of a session, as in the example.
var sessionSources = []int32{0, 1, 2, 3}

// sessionGraph is the k-th session's graph: an undirected R-MAT, as in the
// example. Session 0's graph is the set-up's resident matrix.
func sessionGraph(seed int64, k int) *spmat.CSC {
	return genmat.RMAT(genmat.RMATConfig{Scale: svcScale, EdgeFactor: 8, Symmetrize: true, Seed: seed*1_000_003 + int64(k)})
}

// session runs the example's session on adj through mul: triangle count,
// 4-source BFS on the 0/1 pattern and MCL, once cold and once as a replay.
func session(adj *spmat.CSC, mul apps.MultiplyFunc) error {
	bin := adj.Clone()
	for i := range bin.Val {
		bin.Val[i] = 1
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := tricount.CountVia(adj, mul); err != nil {
			return err
		}
		if _, err := bfs.MultiSourceVia(bin, sessionSources, mul); err != nil {
			return err
		}
		if _, err := mcl.ClusterVia(adj, mcl.Config{MaxIter: mclIters}, mul); err != nil {
			return err
		}
	}
	return nil
}

// daemon is an in-process service behind a loopback HTTP server.
type daemon struct {
	srv *httptest.Server
	// kernels is the daemon's shared kernel cost table, which jobs run with.
	kernels *costmodel.KernelTable
}

func startDaemon(p int, memBytes int64) (*daemon, error) {
	kernels := costmodel.DefaultKernelTable()
	svc, err := service.New(service.Config{P: p, MemBytes: memBytes, Kernels: kernels})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: httptest.NewServer(service.Handler(svc)), kernels: kernels}, nil
}

// stop shuts the server down and waits for its connections to close.
func (d *daemon) stop() { d.srv.Close() }

// client returns a client whose response-body byte count is readable.
func (d *daemon) client() (*service.Client, *countingTransport) {
	ct := &countingTransport{base: d.srv.Client().Transport}
	return &service.Client{Base: d.srv.URL, HTTP: &http.Client{Transport: ct}}, ct
}

// jobSeconds reads the job-duration histogram's sum and count from /metrics.
func (d *daemon) jobSeconds() (sum float64, n int64, err error) {
	resp, err := d.srv.Client().Get(d.srv.URL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "spgemmd_job_duration_seconds_sum "); ok {
			sum, err = strconv.ParseFloat(v, 64)
		} else if v, ok := strings.CutPrefix(sc.Text(), "spgemmd_job_duration_seconds_count "); ok {
			n, err = strconv.ParseInt(v, 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("/metrics: %w", err)
		}
	}
	return sum, n, sc.Err()
}

// countingTransport counts response-body bytes read through it.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// svcOp is one client operation: one MultiplyMatrices call.
type svcOp struct {
	lat float64 // the whole call, client-timed
	ok  bool
	// fresh is set when the pair had not been multiplied before in the
	// client's session.
	fresh bool
	// Traced calls only: the client-timed requests.
	load, plan, multiply float64
	planHit              bool
	queued               bool
	queueSec             float64
	respBytes            int64 // /multiply response body
}

// errDeadline ends a session when the measured phase is over.
var errDeadline = errors.New("measured phase over")

// caller is one client's MultiplyFunc: it times each call and checks its
// product. The first product of a pair must be within 1e-9 of ref's; a
// repeat of the pair must be bit-identical to the first product.
type caller struct {
	cl       *service.Client
	ct       *countingTransport
	traced   bool
	deadline time.Time // zero: no deadline
	ref      apps.MultiplyFunc
	// first maps a session's pairs (operand fingerprints and semiring) to
	// the fingerprint of their first product.
	first map[string]string
	ops   []svcOp
	// checkSec is the time spent checking products: fingerprints and the
	// serial references.
	checkSec float64
}

func newCaller(d *daemon, traced bool, deadline time.Time) *caller {
	cl, ct := d.client()
	return &caller{cl: cl, ct: ct, traced: traced, deadline: deadline, ref: apps.Serial(), first: map[string]string{}}
}

// multiply is the apps.MultiplyFunc the sessions run on.
func (c *caller) multiply(a, b *spmat.CSC, sr string) (*spmat.CSC, error) {
	if !c.deadline.IsZero() && len(c.ops) > 0 && time.Now().After(c.deadline) {
		return nil, errDeadline
	}
	var op svcOp
	var out *spmat.CSC
	var err error
	t0 := time.Now()
	if c.traced {
		out, err = c.split(a, b, sr, &op)
	} else {
		out, err = c.cl.MultiplyMatrices(a, b, sr)
	}
	op.lat = secs(time.Since(t0))
	t0 = time.Now()
	op.fresh, op.ok = c.check(a, b, sr, out)
	op.ok = op.ok && err == nil
	c.checkSec += secs(time.Since(t0))
	c.ops = append(c.ops, op)
	return out, err
}

func (c *caller) check(a, b *spmat.CSC, sr string, out *spmat.CSC) (fresh, ok bool) {
	key := spmat.FingerprintOf(a).Hash + spmat.FingerprintOf(b).Hash + sr
	want, seen := c.first[key]
	if out == nil {
		return !seen, false
	}
	got := spmat.FingerprintOf(out).Hash
	if seen {
		return false, got == want
	}
	ref, err := c.ref(a, b, sr)
	if err != nil || !spgemm.EqualApprox(out, ref, 1e-9) {
		return true, false
	}
	c.first[key] = got
	return true, true
}

// split makes the requests of Client.MultiplyMatrices — /load of both
// operands under the names it derives from their content, then /multiply —
// with a /plan before the /multiply, and times each request.
func (c *caller) split(a, b *spmat.CSC, sr string, op *svcOp) (*spmat.CSC, error) {
	var names [2]string
	for i, m := range []*spmat.CSC{a, b} {
		names[i] = "m-" + spmat.FingerprintOf(m).Hash[:16]
		t0 := time.Now()
		if _, err := c.cl.Load(names[i], m); err != nil {
			return nil, err
		}
		op.load += secs(time.Since(t0))
	}
	t0 := time.Now()
	pl, err := c.cl.Plan(names[0], names[1])
	op.plan, op.planHit = secs(time.Since(t0)), pl.CacheHit
	if err != nil {
		return nil, err
	}
	b0 := c.ct.n.Load()
	t0 = time.Now()
	resp, out, err := c.cl.Multiply(service.MultiplyRequest{A: names[0], B: names[1], Semiring: sr, ReturnResult: true})
	op.multiply = secs(time.Since(t0))
	op.respBytes = c.ct.n.Load() - b0
	op.queued, op.queueSec = resp.Queued, resp.QueueSeconds
	if err == nil && out == nil {
		err = fmt.Errorf("no result matrix")
	}
	return out, err
}

// mixedState is one set-up of service-mixed: the daemon with session 0's
// graph resident and its square planned and multiplied once.
type mixedState struct {
	seed   int64
	d      *daemon
	adj    *spmat.CSC
	truth  truth // of adj·adj
	budget int64
	genSec float64
	// serialSec times MultiplySerial on adj·adj, the pair the per-layer
	// phase traces.
	serialSec float64
	// makeRef is the reference the clients check products against.
	makeRef func() apps.MultiplyFunc
}

func setupMixed(seed int64) (*mixedState, error) {
	st := &mixedState{seed: seed, makeRef: apps.Serial}
	t0 := time.Now()
	st.adj = sessionGraph(seed, 0)
	st.genSec = secs(time.Since(t0))
	t0 = time.Now()
	st.truth.ref = spgemm.MultiplySerial(st.adj, st.adj, nil)
	st.serialSec = secs(time.Since(t0))
	st.budget = 24 * spgemm.Flops(st.adj, st.adj)

	d, err := startDaemon(svcP, st.budget)
	if err != nil {
		return nil, err
	}
	st.d = d
	cl, _ := d.client()
	if _, err := cl.Load("g0", st.adj); err != nil {
		d.stop()
		return nil, fmt.Errorf("load: %w", err)
	}
	// Warm-up: the resident square pays its plan miss and records the
	// distributed product the per-layer phase must reproduce.
	_, st.truth.first, err = cl.Multiply(service.MultiplyRequest{A: "g0", B: "g0", ReturnResult: true})
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// traffic is what drive saw: every op, and the client-side time spent
// generating session graphs and checking products.
type traffic struct {
	ops              []svcOp
	sessions         int
	genSec, checkSec float64
}

// drive runs the closed loop until deadline. Every client runs sessions on
// graphs 1, 2, ... in turn; a session in progress at the deadline ends at
// its next call.
func (st *mixedState) drive(deadline time.Time, traced bool) traffic {
	var next atomic.Int64
	callers := make([]*caller, svcClients)
	var sessions atomic.Int64
	var genNanos atomic.Int64
	var wg sync.WaitGroup
	for i := range callers {
		c := newCaller(st.d, traced, deadline)
		c.ref = st.makeRef()
		callers[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(c.ops) == 0 || time.Now().Before(deadline) {
				t0 := time.Now()
				adj := sessionGraph(st.seed, int(next.Add(1)))
				genNanos.Add(int64(time.Since(t0)))
				clear(c.first)
				// A failed call is counted by multiply and ends the session.
				if session(adj, c.multiply) == nil {
					sessions.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	tr := traffic{sessions: int(sessions.Load()), genSec: secs(time.Duration(genNanos.Load()))}
	for _, c := range callers {
		tr.ops = append(tr.ops, c.ops...)
		tr.checkSec += c.checkSec
	}
	return tr
}

func runMixed(seed int64, dur time.Duration, traced bool) (*outcome, error) {
	var gen, serial []float64
	st, setupSec, err := repeatSetup(func() (*mixedState, error) {
		st, err := setupMixed(seed)
		if err == nil {
			gen, serial = append(gen, st.genSec), append(serial, st.serialSec)
		}
		return st, err
	}, func(s *mixedState) { s.d.stop() })
	if err != nil {
		return nil, err
	}
	defer st.d.stop()
	o := &outcome{}
	if !traced {
		return o, st.measure(o, dur, setupSec)
	}
	// Per-layer phase 1: the core layers on adj·adj, traced.
	cp, err := st.corePair()
	if err != nil {
		return nil, err
	}
	if err := measureLayers(o, cp, gen, serial, time.Now().Add(dur/2)); err != nil {
		return nil, err
	}
	// Phase 2: the traffic itself, every call split into timed requests.
	before, err := serviceCounters(st.d)
	if err != nil {
		return nil, err
	}
	tr := st.drive(time.Now().Add(dur/2), true)
	for _, op := range tr.ops {
		o.count(op.ok)
	}
	after, err := serviceCounters(st.d)
	if err != nil {
		return nil, err
	}
	serviceMetrics(o, after.sub(before), tr.ops, "")
	return o, nil
}

// measure is the end-to-end phase: the closed loop for dur, every call
// timed at its client and its product checked.
func (st *mixedState) measure(o *outcome, dur time.Duration, setupSec float64) error {
	before, err := serviceCounters(st.d)
	if err != nil {
		return err
	}
	runtime0 := readRuntime()
	start := time.Now()
	tr := st.drive(start.Add(dur), false)
	wall := secs(time.Since(start))
	rt := readRuntime().sub(runtime0)
	after, err := serviceCounters(st.d)
	if err != nil {
		return err
	}
	lat := make([]float64, len(tr.ops))
	fresh := 0
	for i, op := range tr.ops {
		lat[i] = op.lat
		o.count(op.ok)
		if op.fresh {
			fresh++
		}
	}
	endToEnd(o, lat, wall, rt, setupSec)
	n := after.sub(before)
	cl, _ := st.d.client()
	resident, err := cl.Matrices()
	if err != nil {
		return err
	}
	var nnz int64
	for _, m := range resident {
		nnz += m.Fingerprint.NNZ
	}
	fmt.Printf("  traffic: %d sessions completed, %d calls, %.1f%% on a pair new to its session; /stats: %d plan misses, %d hits\n",
		tr.sessions, len(tr.ops), 100*float64(fresh)/float64(len(tr.ops)), n.misses, n.hits)
	fmt.Printf("  registry: %d matrices resident (%d added in the phase), %d nonzeros, about %.0f MB of values and row indices\n",
		len(resident), n.matrices, nnz, 12*float64(nnz)/1e6)
	fmt.Printf("  client-side work: graph generation %.2f s, product checks %.2f s, %.1f%% of %d clients x %.2f s\n",
		tr.genSec, tr.checkSec, 100*(tr.genSec+tr.checkSec)/(svcClients*wall), svcClients, wall)
	return nil
}

// corePair is adj·adj under the configuration the daemon runs it with: the
// service's base configuration with its cached plan applied
// (core.ApplyChoice), multiplied untraced by core.Multiply as a job is.
func (st *mixedState) corePair() (corePair, error) {
	cl, _ := st.d.client()
	pl, err := cl.Plan("g0", "g0")
	if err != nil {
		return corePair{}, err
	}
	base := core.RunConfig{P: svcP, L: 1, Cost: costmodel.CoriKNL().Cost(),
		Opts: core.Options{MemBytes: st.budget, Kernels: st.d.kernels}}
	rc, err := core.ApplyChoice(base, pl.Choice)
	if err != nil {
		return corePair{}, err
	}
	a := st.adj
	scale := costmodel.CoriKNL().CommScale
	return corePair{
		a: a, b: a, rc: rc, commScale: scale,
		truth: st.truth,
		untraced: func() (*spmat.CSC, counts, error) {
			c, results, sum, err := core.Multiply(a, a, rc, nil)
			if err != nil {
				return nil, counts{}, err
			}
			return c, countsOf(results, sum, scale), nil
		},
	}, nil
}

// counters are the daemon-side totals the service metrics difference.
type counters struct {
	hits, misses int64
	jobSum       float64
	jobs         int64
	matrices     int
}

func (a counters) sub(b counters) counters {
	return counters{hits: a.hits - b.hits, misses: a.misses - b.misses, jobSum: a.jobSum - b.jobSum, jobs: a.jobs - b.jobs, matrices: a.matrices - b.matrices}
}

func (a counters) add(b counters) counters {
	return counters{hits: a.hits + b.hits, misses: a.misses + b.misses, jobSum: a.jobSum + b.jobSum, jobs: a.jobs + b.jobs, matrices: a.matrices + b.matrices}
}

// serviceCounters reads /stats and /metrics.
func serviceCounters(d *daemon) (counters, error) {
	cl, _ := d.client()
	s, err := cl.Stats()
	if err != nil {
		return counters{}, err
	}
	sum, n, err := d.jobSeconds()
	return counters{hits: s.PlanHits, misses: s.PlanMisses, jobSum: sum, jobs: n, matrices: s.Matrices}, err
}

// serviceMetrics adds the service and planner per-layer metrics of traced
// ops; n is the daemon-side counters over them. queuedNote explains a
// queued share that cannot move.
func serviceMetrics(o *outcome, n counters, ops []svcOp, queuedNote string) {
	var load, miss, hit, mul, queue []float64
	var queued, respBytes float64
	for _, op := range ops {
		if op.multiply == 0 {
			continue // the call failed before its /multiply
		}
		load = append(load, op.load/2)
		if op.planHit {
			hit = append(hit, op.plan)
		} else {
			miss = append(miss, op.plan)
		}
		mul = append(mul, op.multiply)
		queue = append(queue, op.queueSec)
		respBytes += float64(op.respBytes)
		if op.queued {
			queued++
		}
	}
	jobMean := n.jobSum / float64(n.jobs)
	o.add("service.load_s", mean(load), "s", fmt.Sprintf("mean of %d /load", 2*len(load)))
	o.add("planner.plan_miss_s", mean(miss), "s", fmt.Sprintf("mean of %d /plan misses", len(miss)))
	o.add("planner.plan_hit_s", mean(hit), "s", fmt.Sprintf("mean of %d /plan hits", len(hit)))
	// The share is taken over the /plan requests: /stats also counts the
	// lookup of every /multiply, which the /plan before it turns into a hit.
	o.add("service.plan_hit_frac", float64(len(hit))/float64(len(mul)), "frac",
		fmt.Sprintf("%d of %d /plan; /stats: %d hits, %d misses", len(hit), len(mul), n.hits, n.misses))
	o.add("service.queue_wait_s", mean(queue), "s", fmt.Sprintf("mean of %d /multiply", len(mul)))
	o.add("service.queued_frac", queued/float64(len(mul)), "frac", queuedNote)
	o.add("service.overhead_s", mean(mul)-jobMean, "s", fmt.Sprintf("client /multiply %.4f s minus job %.4f s", mean(mul), jobMean))
	o.add("service.result_bytes_per_op", respBytes/float64(len(mul)), "B", "")
}

// serviceRounds is how many fresh daemons serve a batch workload's pair in
// its traced run.
const serviceRounds = 2

// probeService serves a batch workload's pair the way the service callers
// do: each round a fresh daemon gets one MultiplyMatrices call (its loads
// and /plan are cold) and its repeat (already loaded, plan hit). With one
// client no job ever waits for admission.
func probeService(o *outcome, a, b *spmat.CSC, p int, memBytes int64) error {
	var ops []svcOp
	var n counters
	for i := 0; i < serviceRounds; i++ {
		d, err := startDaemon(p, memBytes)
		if err != nil {
			return err
		}
		c := newCaller(d, true, time.Time{})
		for j := 0; j < 2; j++ {
			c.multiply(a, b, "")
		}
		cnt, err := serviceCounters(d)
		d.stop()
		if err != nil {
			return err
		}
		n = n.add(cnt)
		ops = append(ops, c.ops...)
	}
	for _, op := range ops {
		o.count(op.ok)
	}
	serviceMetrics(o, n, ops, "one client: structurally 0")
	return nil
}
