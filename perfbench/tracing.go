package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval. Spans of one pass share Trace; a child
// names its parent's ID.
type span struct {
	Trace   string         `json:"trace"`
	ID      string         `json:"id"`
	Parent  string         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // since the run started
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
}

// addPass records a pass span and one child per campaign.job event. The
// campaign tracer's offsets count from the pass start.
func (l *spanLog) addPass(n int, start time.Time, wall float64, kind string, events []jobEvent) {
	trace := fmt.Sprintf("pass-%d", n)
	base := start.Sub(l.t0).Microseconds()
	l.add(span{Trace: trace, ID: trace, Name: "pass", StartUS: base,
		DurUS: int64(wall * 1e6), Attrs: map[string]any{"kind": kind}})
	for i, ev := range events {
		l.add(span{Trace: trace, ID: fmt.Sprintf("%s/%d", trace, i), Parent: trace,
			Name: ev.Name, StartUS: base + ev.StartUS, DurUS: ev.DurUS, Attrs: ev.Attrs})
	}
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].StartUS < l.spans[j].StartUS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profiler captures one CPU profile per traced pass.
type profiler struct{ buf bytes.Buffer }

func (p *profiler) start() error { return pprof.StartCPUProfile(&p.buf) }

func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return append([]byte(nil), p.buf.Bytes()...)
}

// selfModules are the modules whose profile share is a per-layer
// metric, "<module>.self_pct". analytic.self_pct adds drift, dist and
// math: the quadrature behind the probability tables.
var selfModules = []string{
	"memctrl", "cpu", "trace", "sim", "rand", "runtime", "server", "cache",
	"backend", "net_http", "syscall", "campaign", "reliability",
}

func addShares(out map[string]float64, shares moduleShares) {
	pct := shares.pct()
	for _, m := range selfModules {
		out[m+".self_pct"] = pct[m]
	}
	out["analytic.self_pct"] = pct["drift"] + pct["dist"] + pct["math"]
}

// writeTraceFiles leaves the traced run's spans, first CPU profile,
// per-module profile table and per-layer metrics in one directory.
func writeTraceFiles(e *env, workload string, spans *spanLog, shares moduleShares, prof []byte, metrics map[string]float64) error {
	dir := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d", workload, e.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := spans.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "profile.txt"), []byte(shares.table()), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-34s %g\n", k, metrics[k])
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced run files in %s\n%s", dir, shares.table())
	return nil
}

// checkDigestAcrossRuns compares the run's result digest with the one an
// earlier run of the same workload and seed left in this checkout, and
// records it if there is none.
func checkDigestAcrossRuns(e *env, workload, digest string) error {
	dir := filepath.Join(filepath.Dir(e.outDir), "perfbench-digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, e.seed))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, []byte(digest), 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != digest {
		return fmt.Errorf("result digest %.16s differs from an earlier run's %.16s at seed %d", digest, prev, e.seed)
	}
	return nil
}
