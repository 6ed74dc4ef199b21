package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"readduo/internal/drift"
	"readduo/internal/reliability"
	"readduo/internal/server"
	"readduo/internal/sim"
)

// serve-mix drives an in-process server (default configuration: local
// backend, in-heap cache tier only) with an open-loop constant-rate schedule
// from at most one connection per CPU. Each request is timed from the
// moment it was due, so a stall also charges the requests queued behind
// it.
const (
	// serveRefRate is the reference arrival rate for p50_ms and p99_ms,
	// well below the host's max_rps so the figures measure service, not
	// saturation.
	serveRefRate = 500.0
	// serveRefRequests is one reference pass: enough that p99 has
	// minBeyond samples beyond it.
	serveRefRequests = 2000
	// serveLimitMS is the p99 latency limit max_rps is searched against.
	serveLimitMS = 100.0
	// searchStep is the max_rps staircase's final step (a factor of
	// 1.04), finer than half the max_rps bound.
	searchStep = 0.04
	// searchFirstStep is the max_rps staircase's first step (a factor of
	// 1.5); reversals halve it down to searchStep.
	searchFirstStep = 0.5
	// probesPerPass is how many max_rps verdicts follow each reference
	// pass.
	probesPerPass = 8
	// serveRoundSeconds is about how long one reference pass and its
	// probes take; --seconds divided by it gives the number of rounds.
	serveRoundSeconds = 7.0
	// probeRequests is the length of one max_rps probe. It does not grow
	// with the rate, so the cold entries a run inserts (and the memory
	// they take) do not depend on how fast the host is.
	probeRequests = 1000
	// serveSetupReps is how many times setup_s rebuilds the server.
	serveSetupReps = 7
)

// Request classes. Every block of 100 consecutive requests holds 90 hits,
// 4 cold, 2 grids, one duplicate pair (2 requests) and 2 compares, in a
// seeded random order. The cold classes are 10%, so p50 falls among hits.
// Grids are the slowest class at 2%, so p99 (the slowest 1%) falls at the
// middle of the grid mode, not on a class edge.
const (
	classHit     = "hit"
	classCold    = "cold"    // ler/policy on a never-seen temperature
	classGrid    = "grid"    // a 2048-cell /v1/ler grid on a never-seen temperature
	classDup     = "dup"     // two simultaneous requests for one cold key
	classCompare = "compare" // short /v1/compare (default budget), unique seed
)

var blockClasses = func() []string {
	var b []string
	for _, c := range []struct {
		class string
		n     int
	}{{classHit, 90}, {classCold, 4}, {classGrid, 2}, {classDup, 1}, {classCompare, 2}} {
		for i := 0; i < c.n; i++ {
			b = append(b, c.class)
		}
	}
	return b
}()

// compareBenchmarks are the workloads of the hot set's /v1/compare keys.
var compareBenchmarks = []string{"mcf", "gcc", "lbm", "sphinx3", "omnetpp", "milc", "soplex", "hmmer"}

// coldCompareBenchmarks are the workloads of cold /v1/compare requests:
// at the default 25k-instruction budget each takes about 1 ms, well below
// a grid, so compares stay out of the p99 mode.
var coldCompareBenchmarks = []string{"gcc", "sphinx3", "hmmer", "omnetpp"}

// gridIntervals and gridECCs span a 32 x 64 = 2048-cell LER grid, half the
// server's cap: about 6.5 ms of R-sensing quadrature on a 2-vCPU host.
var gridIntervals, gridECCs = func() (string, string) {
	var ss, es []string
	for k := 0; k < 32; k++ {
		ss = append(ss, strconv.FormatFloat(4*math.Pow(2, float64(k)/2), 'g', 6, 64))
	}
	for e := 0; e < 64; e++ {
		es = append(es, strconv.Itoa(e))
	}
	return strings.Join(ss, ","), strings.Join(es, ",")
}()

type request struct {
	due      time.Duration // offset from the pass start
	class    string
	endpoint string
	path     string // path and query
	hotIndex int    // index into the hot set, or -1
	tempK    float64
	metric   string
}

type response struct {
	sent, done time.Time
	due        time.Time
	status     int
	xcache     string
	// body is kept for misses only; a hit is compared with its key's
	// fill body as it arrives, so the harness holds no per-hit bytes.
	body      []byte
	hitDiffer bool
	err       error
}

// keySource generates inputs from the seed: the hot set, and a stream of
// never-repeated cold keys (each cold temperature is used once per run).
type keySource struct {
	rng      *rand.Rand
	hot      []request
	coldNext int
}

func newKeySource(seed int64) *keySource {
	ks := &keySource{rng: rand.New(rand.NewSource(seed))}
	add := func(endpoint string, q url.Values) {
		ks.hot = append(ks.hot, request{class: classHit, endpoint: endpoint,
			path: "/v1/" + endpoint + "?" + q.Encode(), hotIndex: len(ks.hot)})
	}
	// The Table III grid comes first: the served cells are checked
	// against a direct reliability.Analyzer call.
	add("ler", url.Values{"metric": {"R"}})
	add("ler", url.Values{"metric": {"M"}})
	ints := reliability.PaperIntervals()
	for i := 0; i < 30; i++ {
		lo := ks.rng.Intn(len(ints) - 2)
		hi := lo + 2 + ks.rng.Intn(len(ints)-lo-2)
		var ss []string
		for _, s := range ints[lo:hi] {
			ss = append(ss, strconv.FormatFloat(s, 'g', -1, 64))
		}
		add("ler", url.Values{"metric": {[]string{"R", "M"}[i%2]}, "intervals": {strings.Join(ss, ",")}})
	}
	for _, m := range []string{"R", "M"} {
		for _, e := range []int{0, 1, 7, 8, 9, 10, 16, 17} {
			for _, s := range []int{8, 16, 64, 640} {
				for w := 0; w <= 1 && w <= e; w++ {
					add("policy", url.Values{"metric": {m}, "e": {strconv.Itoa(e)},
						"s": {strconv.Itoa(s)}, "w": {strconv.Itoa(w)}})
				}
			}
		}
	}
	for i, b := range compareBenchmarks {
		for seed := 1; seed <= 2; seed++ {
			add("compare", url.Values{"benchmark": {b}, "schemes": {[]string{"Ideal,LWT-4", "Ideal,Select-4:2"}[(i+seed)%2]},
				"seed": {strconv.Itoa(seed)}})
		}
	}
	return ks
}

// cold returns a request for a key no earlier request used.
func (ks *keySource) cold(class string) request {
	ks.coldNext++
	if class == classCompare {
		b := coldCompareBenchmarks[ks.rng.Intn(len(coldCompareBenchmarks))]
		q := url.Values{"benchmark": {b}, "schemes": {"Ideal,LWT-4"}, "seed": {strconv.Itoa(1000 + ks.coldNext)}}
		return request{class: class, endpoint: "compare", path: "/v1/compare?" + q.Encode(), hotIndex: -1}
	}
	// A fresh temperature forces new drift tables in the analyzer.
	temp := 260 + float64(ks.coldNext)*1e-4 + ks.rng.Float64()*1e-5
	temp = math.Round(temp*1e7) / 1e7
	metric := []string{"R", "M"}[ks.rng.Intn(2)]
	ts := strconv.FormatFloat(temp, 'g', -1, 64)
	if class == classGrid {
		// Always R-sensing: an M grid costs a third as much, and a class
		// split between two costs would put p99 on the edge between them.
		q := url.Values{"metric": {"R"}, "temp": {ts}, "intervals": {gridIntervals}, "eccs": {gridECCs}}
		return request{class: class, endpoint: "ler", path: "/v1/ler?" + q.Encode(), hotIndex: -1, tempK: temp, metric: "R"}
	}
	if ks.rng.Intn(2) == 0 {
		q := url.Values{"metric": {metric}, "temp": {ts}}
		return request{class: class, endpoint: "ler", path: "/v1/ler?" + q.Encode(), hotIndex: -1, tempK: temp, metric: metric}
	}
	e := []int{1, 7, 8, 9, 10, 16}[ks.rng.Intn(6)]
	q := url.Values{"metric": {metric}, "temp": {ts}, "e": {strconv.Itoa(e)},
		"s": {[]string{"8", "16", "64", "640"}[ks.rng.Intn(4)]}, "w": {strconv.Itoa(ks.rng.Intn(2))}}
	return request{class: class, endpoint: "policy", path: "/v1/policy?" + q.Encode(), hotIndex: -1, tempK: temp, metric: metric}
}

// schedule lays out at least n requests at a constant rate: request i
// is due at i/rate, and a duplicate pair shares one due time. Constant
// spacing with a stratified class order keeps compares from piling up
// by chance, so a latency limit is crossed by the rate, not by luck.
func (ks *keySource) schedule(rate float64, n int) []request {
	var out []request
	for len(out) < n {
		block := append([]string(nil), blockClasses...)
		ks.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			due := time.Duration(float64(len(out)) / rate * float64(time.Second))
			var r request
			switch class {
			case classHit:
				r = ks.hot[ks.rng.Intn(len(ks.hot))]
			case classDup:
				r = ks.cold(classDup)
				r.due = due
				out = append(out, r)
			default:
				r = ks.cold(class)
			}
			r.due = due
			out = append(out, r)
		}
	}
	return out
}

// serveState is the running server plus the client that loads it.
type serveState struct {
	srv      *server.Server
	base     string
	client   *http.Client
	hotBody  [][]byte
	workers  int
	depthMax atomic.Int64
}

func (st *serveState) close() {
	st.client.CloseIdleConnections()
	shutdown(st.srv)
}

// shutdown drains a server; a drain that overruns only costs this process
// some goroutines, so it is reported, not fatal.
func shutdown(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
}

// startServer builds and starts a server, then fills its hot set: the
// cold state a restarted service pays before it serves warm traffic.
func startServer(ks *keySource, workers int) (*serveState, error) {
	sim.PurgeSharedCaches()
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		shutdown(srv)
		return nil, err
	}
	st := &serveState{
		srv:  srv,
		base: "http://" + srv.Addr(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}, Timeout: 60 * time.Second},
		hotBody: make([][]byte, len(ks.hot)),
		workers: workers,
	}
	resps := st.send(ks.hot, false)
	for i, r := range resps {
		if r.err != nil || r.status != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("hot fill %s: status %d %v", ks.hot[i].path, r.status, r.err)
		}
		st.hotBody[i] = r.body
	}
	return st, nil
}

// send issues reqs from st.workers goroutines, each holding one
// connection. With paced set, each request waits for its due time
// (open loop); otherwise requests go back to back.
func (st *serveState) send(reqs []request, paced bool) []response {
	out := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for w := 0; w < st.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &out[i]
				r.due = time.Now()
				if paced {
					r.due = start.Add(reqs[i].due)
					if d := time.Until(r.due); d > 0 {
						time.Sleep(d)
					}
				}
				r.sent = time.Now()
				resp, err := st.client.Get(st.base + reqs[i].path)
				if err == nil {
					var body []byte
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if h := reqs[i].hotIndex; h >= 0 && st.hotBody[h] != nil {
						r.hitDiffer = !bytes.Equal(body, st.hotBody[h])
					} else {
						r.body = body
					}
					r.status = resp.StatusCode
					r.xcache = resp.Header.Get("X-Cache")
				}
				r.err = err
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// statusz reads the server's /statusz through its handler.
func (st *serveState) statusz() (map[string]any, error) {
	rec := httptest.NewRecorder()
	st.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	return out, nil
}

// passResult summarizes one schedule.
type passResult struct {
	latMS    []float64 // completion - due
	lagMS    []float64 // send - due
	wall     float64   // seconds from the first due time to the last completion
	failures int
	resps    []response
}

// check validates every response of a pass: 2xx, hit bodies identical to
// the hot set's fill bodies, duplicate pairs identical, and, with cells
// set, every cold /v1/ler grid equal to a direct analyzer call. It returns
// the direct calls' times in milliseconds for the paper-sized (80-cell)
// grids, the same table reliability.ler_ms times on design-sweep.
func (st *serveState) check(t *tally, reqs []request, resps []response, cells bool) []float64 {
	var lerMS []float64
	for i, r := range resps {
		q := reqs[i]
		var err error
		switch {
		case r.err != nil:
			err = fmt.Errorf("%s: %w", q.path, r.err)
		case r.status < 200 || r.status > 299:
			err = fmt.Errorf("%s: status %d", q.path, r.status)
		case r.hitDiffer:
			err = fmt.Errorf("%s: hit body differs from its miss body", q.path)
		case q.class == classDup && i > 0 && reqs[i-1].path == q.path && !bytes.Equal(r.body, resps[i-1].body):
			err = fmt.Errorf("%s: duplicate request bodies differ", q.path)
		case cells && q.endpoint == "ler" && q.hotIndex < 0:
			t0 := time.Now()
			err = checkLER(r.body, q.metric, q.tempK)
			if q.class != classGrid {
				lerMS = append(lerMS, msSince(t0))
			}
		}
		t.record(err)
	}
	return lerMS
}

// lerBody is the part of a /v1/ler response the check reads.
type lerBody struct {
	Intervals []float64   `json:"intervals_s"`
	ECCs      []int       `json:"eccs"`
	Values    [][]float64 `json:"values"`
}

// checkLER compares served LER cells with a direct analyzer call at the
// same metric and temperature.
func checkLER(body []byte, metric string, tempK float64) error {
	var got lerBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("ler body: %w", err)
	}
	cfg := drift.RMetricConfigAt(tempK)
	if metric == "M" {
		cfg = drift.MMetricConfigAt(tempK)
	}
	an, err := reliability.NewAnalyzer(cfg)
	if err != nil {
		return err
	}
	want := an.BuildTable(got.Intervals, got.ECCs)
	for i := range want.Values {
		for j := range want.Values[i] {
			if i >= len(got.Values) || j >= len(got.Values[i]) || got.Values[i][j] != want.Values[i][j] {
				return fmt.Errorf("ler %s@%gK cell (%d,%d) differs from a direct analyzer call", metric, tempK, i, j)
			}
		}
	}
	return nil
}

// servedTableIII reads the Table III cells from the served default R grid.
func servedTableIII(body []byte) ([]paperPoint, error) {
	var got lerBody
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, err
	}
	cell := func(e int, s float64) (float64, bool) {
		for i, iv := range got.Intervals {
			for j, ec := range got.ECCs {
				if iv == s && ec == e && i < len(got.Values) && j < len(got.Values[i]) {
					return got.Values[i][j], true
				}
			}
		}
		return 0, false
	}
	pts := make([]paperPoint, len(paperTableIII))
	for i, c := range paperTableIII {
		v, ok := cell(c.e, c.s)
		if !ok {
			return nil, fmt.Errorf("served Table III lacks E=%d S=%g", c.e, c.s)
		}
		pts[i] = paperPoint{name: fmt.Sprintf("served Table III E=%d S=%g", c.e, c.s), paper: c.paper, repro: v}
	}
	return pts, nil
}

// runPass sends one paced schedule and summarizes it.
func (st *serveState) runPass(reqs []request) passResult {
	resps := st.send(reqs, true)
	pr := passResult{resps: resps}
	first, last := resps[0].due, resps[0].done
	for _, r := range resps {
		pr.latMS = append(pr.latMS, float64(r.done.Sub(r.due))/1e6)
		pr.lagMS = append(pr.lagMS, float64(r.sent.Sub(r.due))/1e6)
		if r.err != nil || r.status < 200 || r.status > 299 {
			pr.failures++
		}
		if r.due.Before(first) {
			first = r.due
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	pr.wall = last.Sub(first).Seconds()
	return pr
}

// probe sends one max_rps probe at rate and reports whether it sustained
// the rate.
func (st *serveState) probe(t *tally, ks *keySource, rate float64) bool {
	reqs := ks.schedule(rate, probeRequests)
	pr := st.runPass(reqs)
	st.check(t, reqs, pr.resps, false)
	return pr.sustains()
}

// verdict decides whether the server sustains rate by a majority of
// three probes (the third only when the first two disagree). Voting
// sharpens the pass-or-fail step around the threshold, so a stall in one
// probe neither drags the staircase down nor lifts it.
func (st *serveState) verdict(t *tally, ks *keySource, rate float64) bool {
	a, b := st.probe(t, ks, rate), st.probe(t, ks, rate)
	if a == b {
		return a
	}
	return st.probe(t, ks, rate)
}

// sustains reports whether a pass met the latency limit with no growing
// backlog: p99 within the limit, no failures, and the generator keeping
// up through the final tenth of the schedule.
func (pr passResult) sustains() bool {
	if pr.failures > 0 {
		return false
	}
	p99, err := percentile(pr.latMS, 0.99)
	if err != nil || p99 > serveLimitMS {
		return false
	}
	tail := pr.lagMS[len(pr.lagMS)*9/10:]
	return median(tail) <= serveLimitMS/4
}

func runServeMix(ctx context.Context, e *env) (map[string]float64, error) {
	ks := newKeySource(e.seed)
	var setupS []float64
	var st *serveState
	var digest string
	for i := 0; i < serveSetupReps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = startServer(ks, e.workers); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		// Every setup computes the hot set afresh; its bodies must not
		// change between setups or between runs at this seed.
		h := sha256.New()
		for _, b := range st.hotBody {
			h.Write(b)
		}
		d := hex.EncodeToString(h.Sum(nil))
		if digest == "" {
			digest = d
		}
		e.tally.record(eqErr("hot-set digest of setup", i, d, digest))
	}
	defer st.close()
	e.tally.record(checkDigestAcrossRuns(e, "serve-mix", digest))
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix setups %.3v s, %d hot keys, digest %.16s\n", setupS, len(ks.hot), digest)

	tableIII, err := servedTableIII(st.hotBody[0])
	if err != nil {
		return nil, err
	}
	e.tally.record(checkLER(st.hotBody[0], "R", drift.DefaultTempK))
	paperErr, err := paperErrPct(tableIII)
	if err != nil {
		return nil, err
	}
	if e.traced {
		return st.tracedPasses(ks, e)
	}

	// The run alternates a reference pass with a few max_rps probes; the
	// staircase carries over, so every probe of the run feeds max_rps. The
	// number of rounds is planned from --seconds rather than timed, so
	// every run inserts the same cold entries and peak_rss_mb does not
	// depend on the host's speed.
	var p50s, p99s, walls []float64
	sc := newStaircase(2*serveRefRate, serveRefRate/4, searchFirstStep, searchStep)
	rounds := max(5, int(math.Round(e.seconds.Seconds()/serveRoundSeconds)))
	for len(walls) < rounds {
		reqs := ks.schedule(serveRefRate, serveRefRequests)
		pr := st.runPass(reqs)
		st.check(e.tally, reqs, pr.resps, true)
		p50, err := percentile(pr.latMS, 0.5)
		if err != nil {
			return nil, err
		}
		p99, err := percentile(pr.latMS, 0.99)
		if err != nil {
			return nil, err
		}
		p50s, p99s, walls = append(p50s, p50), append(p99s, p99), append(walls, pr.wall)
		for i := 0; i < probesPerPass; i++ {
			rate, err := sc.next()
			if err != nil {
				return nil, err
			}
			sc.record(st.verdict(e.tally, ks, rate))
		}
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix pass %d: p50 %.3fms p99 %.2fms lag p50 %.3fms staircase at %.0f/s\n",
			len(walls), p50, p99, median(pr.lagMS), sc.rate)
	}
	for len(sc.probed) < minStaircaseProbes {
		rate, err := sc.next()
		if err != nil {
			return nil, err
		}
		sc.record(st.verdict(e.tally, ks, rate))
	}
	maxRPS, err := sc.estimate()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":       median(setupS),
		"wall_s":        median(walls),
		"p50_ms":        median(p50s),
		"p99_ms":        median(p99s),
		"max_rps":       maxRPS,
		"peak_rss_mb":   peakRSSMB(),
		"paper_err_pct": paperErr,
	}, nil
}

// tracedPasses alternates untraced and traced reference passes and
// reports the serving layers' per-layer metrics.
func (st *serveState) tracedPasses(ks *keySource, e *env) (map[string]float64, error) {
	var (
		shares                     = moduleShares{}
		spans                      = newSpanLog()
		firstProfile               []byte
		plainP50, tracedP50        []float64
		lags, allocs, gcs, lerMS   []float64
		hitMS, missMS              = map[string][]float64{}, map[string][]float64{}
		hits, total, shared, rejct int
	)
	start := time.Now()
	for pass := 0; pass < 6 || time.Since(start) < e.seconds || pass%2 == 1; pass++ {
		traced := pass%2 == 1
		reqs := ks.schedule(serveRefRate, serveRefRequests)
		var prof profiler
		var mem0, mem1 runtime.MemStats
		stop := make(chan struct{})
		var poll sync.WaitGroup
		if traced {
			runtime.ReadMemStats(&mem0)
			if err := prof.start(); err != nil {
				return nil, err
			}
			poll.Add(1)
			go func() {
				defer poll.Done()
				st.pollDepth(stop)
			}()
		}
		passStart := time.Now()
		pr := st.runPass(reqs)
		close(stop)
		poll.Wait()
		ms := st.check(e.tally, reqs, pr.resps, true)
		p50, err := percentile(pr.latMS, 0.5)
		if err != nil {
			return nil, err
		}
		if !traced {
			plainP50 = append(plainP50, p50)
			continue
		}
		raw := prof.stop()
		runtime.ReadMemStats(&mem1)
		if err := shares.add(raw); err != nil {
			return nil, err
		}
		if firstProfile == nil {
			firstProfile = raw
		}
		tracedP50 = append(tracedP50, p50)
		allocs = append(allocs, float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(mem1.NumGC-mem0.NumGC))
		lags = append(lags, pr.lagMS...)
		lerMS = append(lerMS, ms...)
		trace := fmt.Sprintf("pass-%d", pass)
		base := passStart.Sub(spans.t0).Microseconds()
		spans.add(span{Trace: trace, ID: trace, Name: "pass", StartUS: base, DurUS: int64(pr.wall * 1e6),
			Attrs: map[string]any{"kind": "serve", "rate": serveRefRate}})
		for i, r := range pr.resps {
			q := reqs[i]
			spans.add(span{Trace: trace, ID: fmt.Sprintf("%s/%d", trace, i), Parent: trace, Name: "request",
				StartUS: r.due.Sub(spans.t0).Microseconds(), DurUS: r.done.Sub(r.due).Microseconds(),
				Attrs: map[string]any{"class": q.class, "endpoint": q.endpoint, "x_cache": r.xcache, "status": r.status}})
			service := float64(r.done.Sub(r.sent)) / 1e6
			total++
			switch r.xcache {
			case "hit":
				hits++
				hitMS[q.endpoint] = append(hitMS[q.endpoint], service)
			case "shared":
				shared++
			case "miss":
				missMS[q.endpoint] = append(missMS[q.endpoint], service)
			}
			if r.status == http.StatusTooManyRequests {
				rejct++
			}
		}
	}
	out := map[string]float64{
		"server.hit_ratio":           float64(hits) / float64(total),
		"server.singleflight_shared": float64(shared),
		"server.rejected":            float64(rejct),
		"backend.pool_depth.max":     float64(st.depthMax.Load()),
		"go.alloc_mb_per_pass":       median(allocs),
		"go.gc_cycles_per_pass":      median(gcs),
		"tracing.overhead_pct":       100 * (median(tracedP50)/median(plainP50) - 1),
	}
	var err error
	if out["loadgen.lag_ms.p99"], err = percentile(lags, 0.99); err != nil {
		return nil, err
	}
	if len(lerMS) >= 2*minBeyond {
		if out["reliability.ler_ms.p50"], err = percentile(lerMS, 0.5); err != nil {
			return nil, err
		}
	}
	for _, ep := range []string{"ler", "policy", "compare"} {
		for kind, m := range map[string]map[string][]float64{"hit": hitMS, "miss": missMS} {
			if v, err := percentile(m[ep], 0.5); err == nil {
				out["server."+kind+"_ms.p50."+ep] = v
			} else {
				fmt.Fprintf(os.Stderr, "perfbench: server.%s_ms.p50.%s not reported: %v\n", kind, ep, err)
			}
		}
	}
	sz, err := st.statusz()
	if err != nil {
		return nil, err
	}
	if tiers, ok := sz["cache_tiers"].([]any); ok && len(tiers) > 0 {
		t0, _ := tiers[0].(map[string]any)
		out["cache.tier0.entries"], _ = t0["entries"].(float64)
		out["cache.tier0.bytes"], _ = t0["bytes"].(float64)
		out["cache.tier0.hit_ratio"], _ = t0["hit_rate"].(float64)
	}
	addShares(out, shares)
	return out, writeTraceFiles(e, "serve-mix", spans, shares, firstProfile, out)
}

// pollDepth samples the backend pool depth from /statusz until stop.
func (st *serveState) pollDepth(stop <-chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			sz, err := st.statusz()
			if err != nil {
				continue
			}
			if d, ok := sz["pool_depth"].(float64); ok && int64(d) > st.depthMax.Load() {
				st.depthMax.Store(int64(d))
			}
		}
	}
}
