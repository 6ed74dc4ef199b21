package main

import (
	"bufio"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	if _, err := percentile(seq(98), 0.99); err == nil {
		t.Error("p99 over 98 samples: want refusal, got a value")
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 over 999 samples has 9 beyond it: want refusal")
	}
	v, err := percentile(seq(1000), 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 over 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 over 19 samples has 9 beyond it: want refusal")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 over 1..20 = %v, %v; want 10", v, err)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4, 1.0, 7.7}, [3]float64{1.0, 3.1, 7.7}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want error")
	}
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v; want 1.0", sp, err)
	}
}

// runStaircase probes a staircase n times against pass.
func runStaircase(t *testing.T, start float64, n int, pass func(float64) bool) (*staircase, error) {
	t.Helper()
	sc := newStaircase(start, 10, searchFirstStep, searchStep)
	for i := 0; i < n; i++ {
		r, err := sc.next()
		if err != nil {
			return nil, err
		}
		sc.record(pass(r))
	}
	return sc, nil
}

func TestStaircase(t *testing.T) {
	for _, c := range []struct{ threshold, start float64 }{
		{8000, 2000},  // brackets upward
		{8000, 50000}, // brackets downward
		{1000, 1000},  // starts on the threshold
	} {
		sc, err := runStaircase(t, c.start, 30, func(r float64) bool { return r <= c.threshold })
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.estimate()
		if err != nil {
			t.Fatal(err)
		}
		// A deterministic threshold leaves the final-step probes
		// alternating between two rates one step apart around it.
		if got > c.threshold*(1+searchStep) || got*(1+searchStep) < c.threshold {
			t.Errorf("threshold %v start %v: estimate %v, want within one step", c.threshold, c.start, got)
		}
	}
	// A noisy threshold (uniform within ±20%) averages out over the probes.
	rng := rand.New(rand.NewSource(7))
	sc, err := runStaircase(t, 2000, 60, func(r float64) bool { return r <= 8000*(0.8+0.4*rng.Float64()) })
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sc.estimate(); math.Abs(got/8000-1) > 0.1 {
		t.Errorf("noisy threshold 8000: estimate %v", got)
	}
	if _, err := runStaircase(t, 100, 30, func(float64) bool { return false }); err == nil {
		t.Error("nothing passes: want error")
	}
	short, _ := runStaircase(t, 2000, 8, func(r float64) bool { return r <= 8000 })
	if _, err := short.estimate(); err == nil {
		t.Error("estimate from a few probes: want error")
	}
}

// TestSearchStepFinerThanHalfBound ties the search resolution to the
// max_rps bound: one probe on the wrong side of the threshold must move
// max_rps by less than half its regression bound.
func TestSearchStepFinerThanHalfBound(t *testing.T) {
	b, err := loadBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "max_rps" {
			if searchStep >= m.Bound/2 {
				t.Errorf("search step %v is not finer than half the max_rps bound %v", searchStep, m.Bound)
			}
			return
		}
	}
	t.Fatal("BENCHMARK.json has no max_rps")
}

// fixtureRows reads "| label | paper | reproduced ..." rows from the
// paper-column fixture, grouped by the "### " heading above them.
func fixtureRows(t *testing.T) map[string][][3]string {
	t.Helper()
	f, err := os.Open("testdata/paper_column.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][][3]string{}
	heading := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "### ") {
			heading = strings.Fields(line)[1] + " " + strings.Fields(line)[2]
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 || strings.HasPrefix(cells[0], "---") {
			continue
		}
		label := strings.TrimSpace(cells[0])
		if label == "cell" || label == "scheme" {
			continue
		}
		out[heading] = append(out[heading], [3]string{label, cells[1], cells[2]})
	}
	return out
}

var numRE = regexp.MustCompile(`[0-9][0-9.]*(e-?[0-9]+)?`)

func fixtureNum(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(numRE.FindString(cell), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestPaperErrPctFixture(t *testing.T) {
	rows := fixtureRows(t)

	// Table III: the constants match the paper column, and the fixture's
	// reproduced column gives the documented error.
	var pts []paperPoint
	cellRE := regexp.MustCompile(`E=(\d+), S=(\d+)`)
	for i, r := range rows["Table III"] {
		m := cellRE.FindStringSubmatch(r[0])
		e, _ := strconv.Atoi(m[1])
		s, _ := strconv.ParseFloat(m[2], 64)
		paper := fixtureNum(t, r[1])
		c := paperTableIII[i]
		if c.e != e || c.s != s || c.paper != paper {
			t.Errorf("Table III row %d: constant (%d, %g, %g), fixture (%d, %g, %g)", i, c.e, c.s, c.paper, e, s, paper)
		}
		pts = append(pts, paperPoint{name: r[0], paper: paper, repro: fixtureNum(t, r[2])})
	}
	if len(pts) != len(paperTableIII) {
		t.Fatalf("fixture has %d Table III rows, constants %d", len(pts), len(paperTableIII))
	}
	got, err := paperErrPct(pts)
	if err != nil || math.Abs(got-26.782986207277386) > 1e-9 {
		t.Errorf("Table III paper_err_pct = %v, %v; want 26.782986", got, err)
	}

	// Figures 9/10/15.
	pts = nil
	for _, fig := range []struct {
		heading string
		paper   map[string]float64
	}{{"Figure 3", paperFig9}, {"Figure 10", paperFig10}, {"Figure 15", paperFig15}} {
		if len(rows[fig.heading]) != len(fig.paper) {
			t.Fatalf("%s: fixture has %d rows, constants %d", fig.heading, len(rows[fig.heading]), len(fig.paper))
		}
		for _, r := range rows[fig.heading] {
			name := strings.Fields(r[0])[0]
			paper := fixtureNum(t, r[1])
			if fig.paper[name] != paper {
				t.Errorf("%s %s: constant %v, fixture paper column %v", fig.heading, name, fig.paper[name], paper)
			}
			pts = append(pts, paperPoint{name: name, paper: paper, repro: fixtureNum(t, r[2])})
		}
	}
	got, err = paperErrPct(pts)
	if err != nil || math.Abs(got-8.699848826855831) > 1e-9 {
		t.Errorf("Figure 9/10/15 paper_err_pct = %v, %v; want 8.699849", got, err)
	}
}

func TestCheckOrder(t *testing.T) {
	good := map[string]float64{"Ideal": 1, "TLC": 1.002, "Hybrid": 1.011, "LWT-4": 1.07,
		"Select-4:2": 1.074, "Scrubbing": 1.13, "M-metric": 1.47}
	if err := checkOrder(fig9Order, good); err != nil {
		t.Errorf("paper ordering rejected: %v", err)
	}
	swapped := map[string]float64{}
	for k, v := range good {
		swapped[k] = v
	}
	swapped["Scrubbing"], swapped["M-metric"] = 1.47, 1.13
	if err := checkOrder(fig9Order, swapped); err == nil {
		t.Error("Scrubbing above M-metric accepted")
	}
	apart := map[string]float64{}
	for k, v := range good {
		apart[k] = v
	}
	apart["Select-4:2"] = 1.12
	if err := checkOrder(fig9Order, apart); err == nil {
		t.Error("LWT-4 and Select-4:2 7% apart accepted as ≈")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"readduo/internal/memctrl.(*Controller).AdvanceTo": "memctrl",
		"readduo/internal/sim/linetable.(*Table).Get":      "sim",
		"math/rand.(*rngSource).Uint64":                    "rand",
		"math.Exp":                                         "math",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/syscall.Syscall6":                "syscall",
		"net/http.(*conn).serve":                           "net_http",
		"main.burn":                                        "harness",
		"fmt.Sprintf":                                      "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var burnSink float64

//go:noinline
func burn(d time.Duration) {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	burnSink = x
}

// TestProfileShares decodes a real CPU profile and finds the time spent
// in this package's busy loop.
func TestProfileShares(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	raw := p.stop()
	shares := moduleShares{}
	if err := shares.add(raw); err != nil {
		t.Fatal(err)
	}
	if pct := shares.pct()["harness"]; pct < 50 {
		t.Errorf("harness share of a busy loop = %.1f%%, want most of it; table:\n%s", pct, shares.table())
	}
}

// TestMetricNamesUnique guards BENCHMARK.json against a metric listed
// twice, which would make the result line ambiguous.
func TestMetricNamesUnique(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}
