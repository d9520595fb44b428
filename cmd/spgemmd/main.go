// Command spgemmd is the multiply-as-a-service daemon: it holds distributed
// matrices resident across requests, caches planner decisions so repeat
// multiplies skip probe work, and admits concurrent jobs under a shared
// memory budget. The JSON-over-HTTP API (documented in SERVICE.md) exposes:
//
//	POST /load      make a matrix resident (wire bytes, Matrix Market text,
//	                or a server-side deterministic generator)
//	POST /plan      the (cached) planner decision for a resident pair
//	POST /multiply  plan, admit, and execute one job (?trace=1 returns the
//	                job's per-rank Chrome/Perfetto trace)
//	GET  /stats     plan-cache, probe, admission, and job counters (JSON)
//	GET  /matrices  resident matrices and their fingerprints
//	GET  /metrics   the same telemetry in Prometheus text format
//
// Usage:
//
//	spgemmd                                   # 16 ranks, Cori-KNL, :8347
//	spgemmd -p 64 -mem 64MB -machine haswell  # bigger cluster, tight budget
//	spgemmd -addr 127.0.0.1:9000 -threads 4
//	spgemmd -tracedir traces                  # write every job's span trace
//	    # to traces/job-<id>.json
//	spgemmd -pprof                            # mount net/http/pprof under
//	    # /debug/pprof/ for live profiling
//
// Logs are structured (log/slog, text format, stderr): every completed job
// logs one line with its job ID, operand fingerprints, plan-cache outcome,
// queue wait, and duration.
//
// Clients: `spgemm-bench -server URL -exp service` drives a soak workload;
// `mcl -server URL`, the examples, and any HTTP client speak the same API.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/service"
)

// logger is the process-wide structured logger; the service shares it for
// its per-job lines.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8347", "listen address")
		p         = flag.Int("p", 16, "rank count every job runs on")
		machine   = flag.String("machine", "knl", "machine model: knl | haswell | knl-ht | local")
		memStr    = flag.String("mem", "", "aggregate memory budget shared by concurrent jobs, with optional suffix: 4GB, 512MB, 1e9 (empty = unconstrained)")
		threads   = flag.Int("threads", 1, "worker goroutines per rank in local kernels")
		traceDir  = flag.String("tracedir", "", "directory for per-job span traces (job-<id>.json, Chrome trace-event format); created if missing (empty = no capture)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	m, err := costmodel.ByName(*machine)
	if err != nil {
		fatal(err)
	}
	mem, err := parseBytes(*memStr)
	if err != nil {
		fatal(err)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(fmt.Errorf("-tracedir: %w", err))
		}
	}
	svc, err := service.New(service.Config{
		P: *p, Machine: m, MemBytes: mem, Threads: *threads,
		Logger: logger, TraceDir: *traceDir,
	})
	if err != nil {
		fatal(err)
	}

	handler := service.Handler(svc)
	if *pprofFlag {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	logger.Info("serving", "addr", *addr, "p", *p, "machine", m.Name,
		"mem_bytes", mem, "threads", *threads, "pprof", *pprofFlag, "tracedir", *traceDir)
	if err := http.ListenAndServe(*addr, handler); err != nil {
		fatal(err)
	}
}

// parseBytes parses a byte count with an optional decimal suffix (KB, MB,
// GB, TB, or their KiB/MiB/… binary forms, case-insensitive); a bare number
// may use any float syntax ("1e9"). Empty means zero (unconstrained).
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
	fmt.Fprintln(os.Stderr, "spgemmd:", err)
	os.Exit(1)
}
