package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	spgemm "repro"
	"repro/internal/spmat"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note is shown on the human-readable line only (sample counts, which
	// percentile a tail is, why a value is zero).
	Note string
}

// outcome is what one workload run reports: the operations it attempted and
// how many failed, and its metrics in print order.
type outcome struct {
	attempted, failed int
	metrics           []metric
}

// add appends a metric. A ratio with a zero base is reported as 0 and
// flagged in the note.
func (o *outcome) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, note = 0, "undefined (zero base) "+note
	}
	o.metrics = append(o.metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// count records one operation's verdict.
func (o *outcome) count(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// truth is what a product is checked against: within 1e-9 of the serial
// reference and, when a first distributed product of the same configuration
// exists, bit-identical to it.
type truth struct{ ref, first *spmat.CSC }

func (t truth) ok(c *spmat.CSC) bool {
	return c != nil && spgemm.EqualApprox(c, t.ref, 1e-9) && (t.first == nil || spgemm.Equal(c, t.first))
}

func secs(d time.Duration) float64 { return d.Seconds() }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail returns the highest percentile that has at least ten samples beyond
// it — the 11th-largest sample — with the percentile it sits at. With fewer
// than eleven samples it returns the maximum (percentile 100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

// rtSnap is a reading of the Go runtime's own counters.
type rtSnap struct {
	allocBytes float64 // cumulative heap bytes allocated
	gcCPU      float64 // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64 // cumulative CPU seconds (runtime estimate)
	autoGCs    float64 // GC cycles the runtime started on its own
	liveBytes  float64 // heap marked live by the last GC
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/automatic:gc-cycles",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return rtSnap{allocBytes: v[0], gcCPU: v[1], totalCPU: v[2], autoGCs: v[3], liveBytes: v[4]}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		autoGCs:    a.autoGCs - b.autoGCs,
	}
}

func (a *rtSnap) addTo(d rtSnap) {
	a.allocBytes += d.allocBytes
	a.gcCPU += d.gcCPU
	a.totalCPU += d.totalCPU
	a.autoGCs += d.autoGCs
}

// liveHeapAfterGC forces a collection and returns the bytes it found live.
func liveHeapAfterGC() float64 {
	runtime.GC()
	return readRuntime().liveBytes
}

// peakRSS is the process's peak resident set in bytes, as the kernel
// reports it (getrusage ru_maxrss, in KiB on Linux).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// setupReps is how many times each run sets its workload up anew;
// setup_s is the median, and the last set-up is the one measured.
const setupReps = 5

// repeatSetup runs setup setupReps times, releasing and collecting the
// previous repetition first so its leftovers neither tax the next one nor
// raise the peak resident set, and returns the last state with the median
// set-up time.
func repeatSetup[S any](setup func() (S, error), release func(S)) (S, float64, error) {
	var st, none S
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(st)
			st = none
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		times = append(times, secs(time.Since(t0)))
		st = s
	}
	return st, median(times), nil
}

// endToEnd assembles the end-to-end metrics of one untraced measured phase.
func endToEnd(o *outcome, lat []float64, wall float64, rt rtSnap, setup float64) {
	tv, tp := tail(lat)
	o.add("op_s_p50", median(lat), "s", fmt.Sprintf("%d samples", len(lat)))
	o.add("op_s_tail", tv, "s", fmt.Sprintf("p%.1f, %d samples, %d beyond", tp, len(lat), min(tailBeyond, len(lat)-1)))
	o.add("ops_per_s", float64(len(lat))/wall, "1/s", fmt.Sprintf("%d ops in %.2f s", len(lat), wall))
	o.add("alloc_bytes_per_op", rt.allocBytes/float64(len(lat)), "B", "")
	o.add("peak_rss_bytes", peakRSS(), "B", "")
	o.add("setup_s", setup, "s", fmt.Sprintf("median of %d set-ups", setupReps))
}
