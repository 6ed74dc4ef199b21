// Command perfbench is the repository's benchmark. It runs one workload
// in-process for a fixed time, checks the outputs, and prints one JSON
// result line:
//
//	perfbench --workload fig9-campaign --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds every end_to_end metric of
// BENCHMARK.json; with --trace 1 it holds every per_layer metric, and the
// run also writes spans, a CPU profile and a per-module profile table
// under --out. With --steady N it instead runs the workload N times as
// child processes (seeds seed..seed+N-1) and reports each end-to-end
// metric's median, quartiles and spread against its bound.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package first. NOTES.md explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// benchFile is BENCHMARK.json: the metric names, units and bounds the
// result line must carry.
type benchFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts attempted operations and output checks, and the failures
// among them. It is shared by load-generator goroutines.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	logged            int
}

// record counts one operation or check; a non-nil err is a failure.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.logged < 20 {
		t.logged++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// env is what a workload gets: its inputs' seed, its measuring time, and
// where traced runs leave their files.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string
	tally   *tally
	workers int // load and pool width: one per CPU
}

// workloads maps names to their runners. Each returns its metrics: the
// end-to-end set when untraced, the per-layer set when traced.
var workloads = map[string]func(ctx context.Context, e *env) (map[string]float64, error){
	"fig9-campaign": runFig9,
	"design-sweep":  runDesignSweep,
	"serve-mix":     runServeMix,
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measuring time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and report spreads")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for traced-run files")
	flag.Parse()

	bench, err := loadBench("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	if *steady > 0 {
		if err := steadiness(bench, *workload, *seed, *seconds, *steady); err != nil {
			fatal(err)
		}
		return
	}

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		outDir:  *outDir,
		tally:   &tally{},
		workers: runtime.NumCPU(),
	}
	if e.traced {
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	values, err := run(context.Background(), e)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	want := bench.EndToEnd
	if e.traced {
		want = bench.PerLayer
	}
	res, err := assemble(want, values, e.traced, e.tally)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func loadBench(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &b, nil
}

// assemble builds the result line from the workload's values. Every
// end-to-end metric must be measured; a per-layer metric of a layer the
// workload never enters is reported as 0.
func assemble(want []metricSpec, values map[string]float64, traced bool, t *tally) (result, error) {
	res := result{Metrics: make(map[string]metricValue, len(want))}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok && !traced {
			return res, fmt.Errorf("workload did not measure %s", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for k := range values {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	res.Attempted, res.Failed = t.counts()
	if res.Attempted == 0 {
		return res, fmt.Errorf("no operations attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
