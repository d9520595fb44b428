package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Operational telemetry for the daemon, hand-rolled in the Prometheus text
// exposition format (no client library — stdlib only). /stats and /metrics
// render the same underlying counters: Stats() snapshots everything here, so
// the two endpoints can never drift apart.

// histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// counts[i] counts observations ≤ bounds[i], with an implicit +Inf bucket at
// the end. It is not thread-safe; jobMetrics holds the lock.
type histogram struct {
	bounds []float64 // ascending upper bounds (le)
	counts []int64   // len(bounds)+1, last = +Inf overflow
	sum    float64
	n      int64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// write emits the histogram in exposition format: cumulative _bucket lines,
// then _sum and _count.
func (h *histogram) write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n)
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}

// jobBuckets covers the wall-clock range multiply jobs span on a developer
// host: sub-millisecond cache-hit tiny jobs up to multi-second soaks.
var jobBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// jobMetrics aggregates per-job wall timings: end-to-end duration (plan +
// admission wait + run) and admission queue wait, as histograms plus the
// total/max the Stats snapshot reports.
type jobMetrics struct {
	mu             sync.Mutex
	duration       histogram
	queueWait      histogram
	queueWaitTotal float64
	queueWaitMax   float64
	failures       int64
}

func newJobMetrics() *jobMetrics {
	return &jobMetrics{
		duration:  newHistogram(jobBuckets),
		queueWait: newHistogram(jobBuckets),
	}
}

// observeJob records one completed job's end-to-end duration and queue wait.
func (jm *jobMetrics) observeJob(duration, wait float64) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.duration.observe(duration)
	jm.queueWait.observe(wait)
	jm.queueWaitTotal += wait
	if wait > jm.queueWaitMax {
		jm.queueWaitMax = wait
	}
}

// observeFailure counts a job that errored after admission accounting began.
func (jm *jobMetrics) observeFailure() {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.failures++
}

// snapshot returns the scalar aggregates Stats() reports.
func (jm *jobMetrics) snapshot() (waitTotal, waitMax float64, failures int64) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.queueWaitTotal, jm.queueWaitMax, jm.failures
}

// endpointNames fixes the counter set (and its /metrics label order); the
// epLoad... indices address Service.requests.
var endpointNames = [...]string{"load", "plan", "multiply", "stats", "matrices", "metrics"}

const (
	epLoad = iota
	epPlan
	epMultiply
	epStats
	epMatrices
	epMetrics
)

// WriteMetrics renders the service's telemetry in the Prometheus text
// exposition format (version 0.0.4). Every scalar comes from the same
// Stats() snapshot /stats serves.
func (s *Service) WriteMetrics(w io.Writer) {
	st := s.Stats()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	fmt.Fprintf(w, "# HELP spgemmd_requests_total HTTP requests served, by endpoint.\n# TYPE spgemmd_requests_total counter\n")
	for _, ep := range endpointNames {
		fmt.Fprintf(w, "spgemmd_requests_total{endpoint=%q} %d\n", ep, st.Requests[ep])
	}

	counter("spgemmd_jobs_total", "Completed multiply jobs.", float64(st.Multiplies))
	counter("spgemmd_jobs_failed_total", "Multiply jobs that errored.", float64(st.JobFailures))
	counter("spgemmd_jobs_queued_total", "Jobs that waited for admission.", float64(st.QueuedJobs))
	counter("spgemmd_queue_wait_seconds_total", "Total admission queue wait.", st.QueueWaitSeconds)
	gauge("spgemmd_queue_wait_max_seconds", "Longest single admission wait.", st.QueueWaitMaxSeconds)
	gauge("spgemmd_admission_queue_depth", "Jobs currently waiting for admission.", float64(st.QueueDepth))
	gauge("spgemmd_admission_queue_peak", "Deepest the admission queue has been.", float64(st.PeakQueued))
	gauge("spgemmd_admission_reserved_bytes", "Sum of admitted jobs' reservations.", float64(st.ReservedBytes))
	gauge("spgemmd_mem_budget_bytes", "Aggregate memory budget (0 = unconstrained).", float64(st.MemBytes))

	gauge("spgemmd_plan_cache_entries", "Cached planning decisions.", float64(st.Plans))
	counter("spgemmd_plan_cache_hits_total", "Plan-cache hits.", float64(st.PlanHits))
	counter("spgemmd_plan_cache_misses_total", "Plan-cache misses (ran the probe+sweep).", float64(st.PlanMisses))
	counter("spgemmd_probes_total", "Planner probe+sweep executions.", float64(st.Probes))

	gauge("spgemmd_resident_matrices", "Matrices in the registry.", float64(st.Matrices))
	counter("spgemmd_traces_captured_total", "Per-job span traces captured.", float64(st.TracesCaptured))
	gauge("spgemmd_ranks", "Simulated rank count per job.", float64(st.P))

	s.met.mu.Lock()
	fmt.Fprintf(w, "# HELP spgemmd_job_duration_seconds End-to-end multiply job wall time (plan + queue + run).\n")
	s.met.duration.write(w, "spgemmd_job_duration_seconds")
	fmt.Fprintf(w, "# HELP spgemmd_job_queue_wait_seconds Admission queue wait per job.\n")
	s.met.queueWait.write(w, "spgemmd_job_queue_wait_seconds")
	s.met.mu.Unlock()
}
