package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"readduo/internal/campaign"
	"readduo/internal/cpu"
	"readduo/internal/drift"
	"readduo/internal/reliability"
	"readduo/internal/report"
	"readduo/internal/sim"
	"readduo/internal/telemetry"
	"readduo/internal/trace"
)

// campaignWorkload is a fixed job matrix run as repeated passes through
// campaign.Run, each pass timed as a whole.
type campaignWorkload struct {
	name string
	spec campaign.Spec
	// purge drops the shared probability tables before every pass, so
	// each pass pays cold quadrature like a fresh process would.
	purge bool
	// analytic, when non-nil, runs once per pass after the campaign and
	// its per-call times feed reliability.ler_ms.
	analytic func() ([]float64, error)
	// paper returns the points paper_err_pct averages over.
	paper func(m *report.Matrix) ([]paperPoint, error)
	// check validates one pass's result matrix beyond the digest.
	check func(m *report.Matrix) error
}

// fig9Workload is the Figure 9/10/15 matrix: the 14 suite benchmarks
// under the 7 paper schemes at the reference budget.
func fig9Workload(seed int64) *campaignWorkload {
	return &campaignWorkload{
		name: "fig9-campaign",
		spec: campaign.Spec{
			Benchmarks: trace.Benchmarks(),
			Schemes:    sim.AllSchemes(),
			Seeds:      []int64{seed},
			Budget:     3_000_000,
		},
		paper: fig9PaperPoints,
		check: fig9Ordering,
	}
}

// designTemps is the ambient-temperature axis of the design sweep, in
// Kelvin: every point needs its own drift tables.
var designTemps = []float64{250, 262.5, 275, 287.5, 300, 312.5, 325, 337.5, 350}

// designWorkload is a cold-process design-space exploration: the
// Figures 12-14 design points (LWT-k, Select-k:s, conversion on/off)
// across the temperature axis on four benchmarks at a short budget, plus
// the Table III/IV/V analytical grid at every temperature.
func designWorkload(seed int64) (*campaignWorkload, error) {
	bases := []sim.Scheme{
		sim.Ideal(), sim.LWT(2, true), sim.LWT(4, true), sim.LWT(8, true),
		sim.LWT(4, false), sim.Select(4, 1), sim.Select(4, 2),
	}
	var schemes []sim.Scheme
	for _, t := range designTemps {
		for _, b := range bases {
			s, err := b.AtEnv(sim.Environment{TempK: t})
			if err != nil {
				return nil, err
			}
			schemes = append(schemes, s)
		}
	}
	var benches []trace.Benchmark
	for _, name := range []string{"mcf", "sphinx3", "lbm", "omnetpp"} {
		b, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		benches = append(benches, b)
	}
	return &campaignWorkload{
		name: "design-sweep",
		spec: campaign.Spec{
			Benchmarks: benches,
			Schemes:    schemes,
			Seeds:      []int64{seed},
			Budget:     100_000,
		},
		purge:    true,
		analytic: analyticGrid,
		paper:    func(*report.Matrix) ([]paperPoint, error) { return tableIIIPoints(), nil },
	}, nil
}

// analyticGrid evaluates Tables III and IV (R and M metric LER grids)
// and the Table V policy checks at every sweep temperature, timing each
// table build.
func analyticGrid() ([]float64, error) {
	var ms []float64
	for _, t := range designTemps {
		for _, cfg := range []drift.Config{drift.RMetricConfigAt(t), drift.MMetricConfigAt(t)} {
			t0 := time.Now()
			an, err := reliability.NewAnalyzer(cfg)
			if err != nil {
				return nil, err
			}
			an.BuildTable(reliability.PaperIntervals(), reliability.PaperECCs())
			ms = append(ms, msSince(t0))
		}
		an, err := reliability.NewAnalyzer(drift.RMetricConfigAt(t))
		if err != nil {
			return nil, err
		}
		for _, p := range []reliability.Policy{{E: 8, S: 8, W: 1}, {E: 10, S: 8, W: 1}} {
			if _, err := an.Check(p); err != nil {
				return nil, err
			}
		}
	}
	return ms, nil
}

func runFig9(ctx context.Context, e *env) (map[string]float64, error) {
	return fig9Workload(e.seed).run(ctx, e)
}

func runDesignSweep(ctx context.Context, e *env) (map[string]float64, error) {
	w, err := designWorkload(e.seed)
	if err != nil {
		return nil, err
	}
	return w.run(ctx, e)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// setupReps is how many times a run rebuilds its cold state; setup_s is
// the median.
const setupReps = 5

// setup brings the process from cold to ready: after a purge of the
// shared tables, every design point runs once at the minimum budget, which
// builds its probability tables and exercises engine construction. It
// returns the wall time and each cold sim.Run's milliseconds.
func (w *campaignWorkload) setup() (float64, []float64, error) {
	t0 := time.Now()
	sim.PurgeSharedCaches()
	var ms []float64
	for _, sc := range w.spec.Schemes {
		cfg := sim.DefaultConfig(w.spec.Benchmarks[0])
		cfg.CPU.InstrBudget = 1
		t1 := time.Now()
		if _, err := sim.Run(cfg, sc); err != nil {
			return 0, nil, fmt.Errorf("prime %s: %w", sc.Name(), err)
		}
		ms = append(ms, msSince(t1))
	}
	return time.Since(t0).Seconds(), ms, nil
}

// passStats is what one pass measured.
type passStats struct {
	wall      float64   // seconds
	resultMS  []float64 // time from pass start to each job's result
	jobMS     []float64 // each job's own wall time
	allocMB   float64
	gcCycles  float64
	probHit   uint64
	probMiss  uint64
	traceRecs uint64
	traceNS   float64 // sampled ns per generated record
	matrix    *report.Matrix
	digest    string
	queueWait float64 // campaign.job.queue_wait_ms p50 (traced passes)
	events    []jobEvent
}

// jobEvent is one campaign.job span as the campaign tracer emits it.
type jobEvent struct {
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs"`
}

// timedSource wraps a job's trace generator and times every 64th record,
// so trace.ns_per_record costs the hot path one counter increment on most
// calls.
type timedSource struct {
	src     cpu.Source
	n       uint64
	sampled uint64
	ns      int64
}

const sourceSampleEvery = 64

func (s *timedSource) Next(core int) (trace.Record, error) {
	s.n++
	if s.n%sourceSampleEvery != 0 {
		return s.src.Next(core)
	}
	t0 := time.Now()
	r, err := s.src.Next(core)
	s.ns += int64(time.Since(t0))
	s.sampled++
	return r, err
}

// run measures the workload: setupReps cold setups, then passes until the
// measuring time is spent and every reported percentile has enough
// samples. A traced run alternates untraced and traced passes so the
// tracing overhead is measured in the same process.
func (w *campaignWorkload) run(ctx context.Context, e *env) (map[string]float64, error) {
	jobs := len(w.spec.Jobs())
	cores := sim.DefaultConfig(w.spec.Benchmarks[0]).CPU.Cores
	minstrPerJob := float64(w.spec.Budget) * float64(cores) / 1e6

	var setupS, setupMS []float64
	for i := 0; i < setupReps; i++ {
		s, ms, err := w.setup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
		setupMS = append(setupMS, ms...)
	}

	var (
		untraced, traced []passStats
		lerMS            []float64
		digest           string
		distinct, misses uint64
		shares           = moduleShares{}
		spans            = newSpanLog()
		firstProfile     []byte
	)
	// Enough passes that p99 of time-to-result has minBeyond samples
	// beyond it, and at least five passes for every median.
	minPasses := max(5, int(math.Ceil(100*minBeyond/float64(jobs))))
	if e.traced {
		minPasses = 2 * max(3, minPasses/2) // pairs of untraced+traced
	}
	start := time.Now()
	// A traced run ends on a traced pass, so passes pair up.
	for pass := 0; pass < minPasses || time.Since(start) < e.seconds || (e.traced && pass%2 == 1); pass++ {
		tracedPass := e.traced && pass%2 == 1
		if w.purge {
			entries := sim.PurgeSharedCaches()
			if pass > 0 && e.traced && !tracedPass {
				distinct += uint64(entries) // tables the previous (traced) pass built
			}
		}
		ps, prof, err := w.pass(ctx, e, tracedPass, spans, pass)
		if err != nil {
			return nil, err
		}
		if digest == "" {
			digest = ps.digest
		}
		e.tally.record(eqErr("result digest of pass", pass, ps.digest, digest))
		if w.check != nil {
			e.tally.record(w.check(ps.matrix))
		}
		if w.analytic != nil {
			ms, err := w.analytic()
			if err != nil {
				return nil, err
			}
			lerMS = append(lerMS, ms...)
		}
		if tracedPass {
			misses += ps.probMiss
			if err := shares.add(prof); err != nil {
				return nil, err
			}
			if firstProfile == nil {
				firstProfile = prof
			}
			traced = append(traced, ps)
		} else {
			untraced = append(untraced, ps)
		}
	}
	if w.purge && e.traced && len(traced) > 0 {
		// Entries left by the final traced pass.
		distinct += uint64(sim.PurgeSharedCaches())
	}
	e.tally.record(checkDigestAcrossRuns(e, w.name, digest))

	paperPts, err := w.paper(untraced[0].matrix)
	if err != nil {
		return nil, err
	}
	paperErr, err := paperErrPct(paperPts)
	if err != nil {
		return nil, err
	}

	if !e.traced {
		var walls, rates, results []float64
		for _, ps := range untraced {
			walls = append(walls, ps.wall)
			rates = append(rates, float64(jobs)/ps.wall)
			results = append(results, ps.resultMS...)
		}
		p50, err := percentile(results, 0.5)
		if err != nil {
			return nil, err
		}
		p99, err := percentile(results, 0.99)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: setups %.3v s, %d passes, wall median %.3fs, digest %s\n",
			w.name, setupS, len(walls), median(walls), digest[:16])
		return map[string]float64{
			"setup_s":       median(setupS),
			"wall_s":        median(walls),
			"p50_ms":        p50,
			"p99_ms":        p99,
			"max_rps":       median(rates),
			"peak_rss_mb":   peakRSSMB(),
			"paper_err_pct": paperErr,
		}, nil
	}

	// Traced run: per-layer metrics.
	out := map[string]float64{}
	var jobMS, hostNS, busy, allocs, gcs, tracedWalls, plainWalls, qwait, recNS []float64
	var recs uint64
	for _, ps := range traced {
		tracedWalls = append(tracedWalls, ps.wall)
		jobMS = append(jobMS, ps.jobMS...)
		var sum float64
		for _, v := range ps.jobMS {
			sum += v
		}
		hostNS = append(hostNS, sum*1e6/(minstrPerJob*float64(jobs)))
		busy = append(busy, sum/(1000*ps.wall*float64(e.workers)))
		allocs = append(allocs, ps.allocMB)
		gcs = append(gcs, ps.gcCycles)
		qwait = append(qwait, ps.queueWait)
		recNS = append(recNS, ps.traceNS)
		recs = ps.traceRecs
	}
	for _, ps := range untraced {
		plainWalls = append(plainWalls, ps.wall)
	}
	if out["campaign.job_ms.p50"], err = percentile(jobMS, 0.5); err != nil {
		return nil, err
	}
	if out["campaign.job_ms.p90"], err = percentile(jobMS, 0.9); err != nil {
		return nil, err
	}
	if out["sim.setup_ms.p50"], err = percentile(setupMS, 0.5); err != nil {
		return nil, err
	}
	if len(lerMS) > 0 {
		if out["reliability.ler_ms.p50"], err = percentile(lerMS, 0.5); err != nil {
			return nil, err
		}
	}
	out["campaign.worker_busy_frac"] = median(busy)
	out["campaign.queue_wait_ms.p50"] = median(qwait)
	out["sim.host_ns_per_minstr"] = median(hostNS)
	out["go.alloc_mb_per_pass"] = median(allocs)
	out["go.gc_cycles_per_pass"] = median(gcs)
	out["trace.records"] = float64(recs)
	out["trace.ns_per_record"] = median(recNS)
	out["tracing.overhead_pct"] = 100 * (median(tracedWalls)/median(plainWalls) - 1)
	last := traced[len(traced)-1]
	out["sim.probcache.hit"] = float64(last.probHit)
	out["sim.probcache.miss"] = float64(last.probMiss)
	if misses > 0 {
		out["sim.probcache.useful_frac"] = float64(distinct) / float64(misses)
	}
	for k, v := range simulatedCounts(last.matrix) {
		out[k] = v
	}
	addShares(out, shares)
	return out, writeTraceFiles(e, w.name, spans, shares, firstProfile, out)
}

// pass runs the campaign once. A traced pass also installs the timed
// trace source, the telemetry registry and a CPU profile.
func (w *campaignWorkload) pass(ctx context.Context, e *env, tracedPass bool, spans *spanLog, n int) (passStats, []byte, error) {
	var ps passStats
	var jobBuf bytes.Buffer
	spec := w.spec
	opts := campaign.Options{Parallel: e.workers, Tracer: telemetry.NewTracer(&jobBuf)}

	var (
		srcMu   sync.Mutex
		sources []*timedSource
		reg     *telemetry.Registry
		prof    profiler
		mem0    runtime.MemStats
	)
	if tracedPass {
		spec.Configure = func(_ campaign.Job, cfg *sim.Config) {
			gen, err := trace.NewGenerator(cfg.Bench, cfg.CPU.Cores, cfg.Seed)
			if err != nil {
				return // the engine builds its own generator and reports the error
			}
			ts := &timedSource{src: gen}
			srcMu.Lock()
			sources = append(sources, ts)
			srcMu.Unlock()
			cfg.Source = ts
		}
		reg = telemetry.NewRegistry("perfbench")
		opts.Telemetry = reg
		runtime.ReadMemStats(&mem0)
		if err := prof.start(); err != nil {
			return ps, nil, err
		}
	}
	h0, m0, _ := sim.CacheStats()
	passStart := time.Now()
	out, err := campaign.Run(ctx, spec, opts)
	ps.wall = time.Since(passStart).Seconds()
	var profBytes []byte
	if tracedPass {
		profBytes = prof.stop()
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		ps.allocMB = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
		ps.gcCycles = float64(mem1.NumGC - mem0.NumGC)
	}
	if err != nil {
		return ps, nil, err
	}
	h1, m1, _ := sim.CacheStats()
	ps.probHit, ps.probMiss = h1-h0, m1-m0
	for _, rec := range out.Records {
		var jobErr error
		if rec.Status != campaign.StatusOK {
			jobErr = fmt.Errorf("%s job %s: %s %s", w.name, rec.Key, rec.Status, rec.Error)
		}
		e.tally.record(jobErr)
		ps.jobMS = append(ps.jobMS, rec.WallMS)
	}
	if out.Failed > 0 || out.Remaining > 0 {
		return ps, nil, fmt.Errorf("%d jobs failed, %d never ran", out.Failed, out.Remaining)
	}
	mats, err := out.Matrices(spec)
	if err != nil {
		return ps, nil, err
	}
	ps.matrix = mats[0].Matrix
	if ps.digest, err = resultDigest(out.Records); err != nil {
		return ps, nil, err
	}
	for _, line := range bytes.Split(bytes.TrimSpace(jobBuf.Bytes()), []byte("\n")) {
		var ev jobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return ps, nil, fmt.Errorf("campaign span: %w", err)
		}
		ps.resultMS = append(ps.resultMS, float64(ev.StartUS+ev.DurUS)/1000)
		ps.events = append(ps.events, ev)
	}
	if len(ps.resultMS) != len(out.Records) {
		return ps, nil, fmt.Errorf("%d job spans for %d jobs", len(ps.resultMS), len(out.Records))
	}
	if tracedPass {
		for _, s := range sources {
			ps.traceRecs += s.n
			if s.sampled > 0 {
				ps.traceNS += float64(s.ns) / float64(s.sampled) * float64(s.n)
			}
		}
		if ps.traceRecs > 0 {
			ps.traceNS /= float64(ps.traceRecs)
		}
		if h, ok := reg.Snapshot().Histograms["campaign.job.queue_wait_ms"]; ok {
			ps.queueWait = h.Quantile(0.5)
		}
		spans.addPass(n, passStart, ps.wall, "campaign", ps.events)
	}
	return ps, profBytes, nil
}

// resultDigest hashes every job's result in job order.
func resultDigest(records []campaign.Record) (string, error) {
	h := sha256.New()
	for _, rec := range records {
		b, err := json.Marshal(rec.Result)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func eqErr(what string, n int, got, want string) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("%s %d is %.16s, first pass gave %.16s", what, n, got, want)
}

// simulatedCounts sums the memory controller's and the scheme policies'
// simulated activity over one pass. These repeat exactly at a fixed seed.
func simulatedCounts(m *report.Matrix) map[string]float64 {
	var reads, writes, scrubs, cancels, latPS, rr, mr, rmr, conv, full, diff, cells uint64
	for _, row := range m.Results {
		for _, r := range row {
			reads += r.Mem.Reads
			writes += r.Mem.Writes
			scrubs += r.Mem.ScrubReads + r.Mem.ScrubWrites
			cancels += r.Mem.Cancellations
			latPS += uint64(r.Mem.ReadLatencySumPS)
			rr += r.RReads
			mr += r.MReads
			rmr += r.RMReads
			conv += r.Conversions
			full += r.FullWrites
			diff += r.DiffWrites
			cells += r.CellWrites
		}
	}
	out := map[string]float64{
		"memctrl.reads":         float64(reads),
		"memctrl.writes":        float64(writes),
		"memctrl.scrub_ops":     float64(scrubs),
		"memctrl.write_cancels": float64(cancels),
		"sim.reads.r":           float64(rr),
		"sim.reads.m":           float64(mr),
		"sim.reads.rm":          float64(rmr),
		"sim.conversions":       float64(conv),
		"sim.writes.full":       float64(full),
		"sim.writes.diff":       float64(diff),
		"sim.cell_writes":       float64(cells),
	}
	if reads > 0 {
		out["memctrl.avg_read_latency_ns"] = float64(latPS) / float64(reads) / 1000
	}
	return out
}
