// Command perfbench is the measured benchmark of this repository: it runs
// paper-shaped workloads through the public entry points, checks every
// product, and prints wall-clock, memory and per-layer metrics.
//
//	perfbench --workload protein-membound --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// runs the per-layer path (grid.New, core.Setup, BatchedSUMMA3D and
// AssembleResults called and timed one by one, the ranks' meters read out, a
// forced-GC live-heap probe at the batch hooks) and the service/planner
// probes, and prints the per-layer metrics. --workload all runs every
// workload, each in a child process, and prefixes its metrics with its
// name. The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps the build inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = []struct {
	name string
	run  func(seed int64, dur time.Duration, traced bool) (*outcome, error)
}{
	{"protein-membound", func(seed int64, dur time.Duration, traced bool) (*outcome, error) {
		return runBatch(proteinMembound, seed, dur, traced)
	}},
	{"kmers-hypersparse", func(seed int64, dur time.Duration, traced bool) (*outcome, error) {
		return runBatch(kmersHypersparse, seed, dur, traced)
	}},
	{"service-mixed", runMixed},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = per-layer run, 0 = end-to-end run")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, dur time.Duration, traced bool) error {
	res := result{Metrics: map[string]jsonMetric{}}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		switch workload {
		case w.name:
			o, err := runOne(w.name, w.run, seed, dur, traced)
			if err != nil {
				return err
			}
			for _, m := range o.metrics {
				res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
			}
			res.Attempted, res.Failed = o.attempted, o.failed
		case "all":
			// Each workload runs in a child process of its own, so that its
			// peak resident set and heap state are its own.
			r, err := runChild(w.name, seed, dur, traced)
			if err != nil {
				return err
			}
			for k, m := range r.Metrics {
				res.Metrics[w.name+"."+k] = m
			}
			res.Attempted += r.Attempted
			res.Failed += r.Failed
		}
	}
	if res.Attempted == 0 {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", workload, strings.Join(names, ", "))
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne runs one workload in this process and prints its metrics.
func runOne(name string, run func(int64, time.Duration, bool) (*outcome, error), seed int64, dur time.Duration, traced bool) (*outcome, error) {
	fmt.Printf("== %s  seed %d  %v  trace %v  (%s, NumCPU %d, GOMAXPROCS %d)\n",
		name, seed, dur, traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	o, err := run(seed, dur, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, m := range o.metrics {
		fmt.Printf("  %-28s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Printf("  %-28s %14.6g %-6s %d of %d operations\n", "failed_frac",
		float64(o.failed)/float64(o.attempted), "frac", o.failed, o.attempted)
	return o, nil
}

// runChild runs one workload in a child process of this binary, passes its
// human-readable lines through and returns its result line.
func runChild(name string, seed int64, dur time.Duration, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(int(dur/time.Second)), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &r, nil
}
