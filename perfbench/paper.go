package main

import (
	"fmt"
	"math"
	"strings"

	"readduo/internal/drift"
	"readduo/internal/reliability"
	"readduo/internal/report"
)

// The paper column of EXPERIMENTS.md: Figure 9/10/15 suite means
// normalized to Ideal, and the Table III cells. Figure 10 has no TLC bar
// and "~1.0" entries are read as 1.0.
var (
	paperFig9 = map[string]float64{
		"Scrubbing": 1.21, "M-metric": 1.25, "TLC": 1.00,
		"Hybrid": 1.058, "LWT-4": 1.029, "Select-4:2": 1.034,
	}
	paperFig10 = map[string]float64{
		"Scrubbing": 1.17, "M-metric": 1.05, "Hybrid": 1.087,
		"LWT-4": 1.0133, "Select-4:2": 0.778,
	}
	paperFig15 = map[string]float64{
		"Scrubbing": 0.876, "M-metric": 1.0, "Hybrid": 0.94,
		"LWT-4": 0.90, "Select-4:2": 1.42,
	}
	paperTableIII = []struct {
		e     int
		s     float64
		paper float64
	}{
		{0, 8, 7.09e-2}, {1, 8, 2.56e-3}, {1, 16, 1.43e-2}, {8, 16, 4.07e-13},
		{7, 32, 2.51e-9}, {9, 64, 3.23e-10}, {17, 640, 1.51e-12},
	}
)

// fig9PaperPoints pairs the reproduced Figure 9/10/15 means with the
// paper's.
func fig9PaperPoints(m *report.Matrix) ([]paperPoint, error) {
	_, timeMeans, err := m.Normalized("Ideal", report.ExecTime)
	if err != nil {
		return nil, err
	}
	_, energyMeans, err := m.Normalized("Ideal", report.DynamicEnergy)
	if err != nil {
		return nil, err
	}
	life, err := m.RelativeLifetime("Ideal")
	if err != nil {
		return nil, err
	}
	repro := func(fig string, paper map[string]float64, value func(j int, name string) float64) ([]paperPoint, error) {
		var pts []paperPoint
		for j, name := range m.Schemes {
			if p, ok := paper[name]; ok {
				pts = append(pts, paperPoint{name: fig + " " + name, paper: p, repro: value(j, name)})
			}
		}
		if len(pts) != len(paper) {
			return nil, fmt.Errorf("%s: matched %d of %d paper schemes", fig, len(pts), len(paper))
		}
		return pts, nil
	}
	var all []paperPoint
	for _, f := range []struct {
		fig   string
		paper map[string]float64
		value func(int, string) float64
	}{
		{"Figure 9", paperFig9, func(j int, _ string) float64 { return timeMeans[j] }},
		{"Figure 10", paperFig10, func(j int, _ string) float64 { return energyMeans[j] }},
		{"Figure 15", paperFig15, func(_ int, name string) float64 { return life[name] }},
	} {
		pts, err := repro(f.fig, f.paper, f.value)
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	return all, nil
}

// tableIIIPoints pairs the analytical Table III cells (R-sensing LER at
// the default temperature) with the paper's.
func tableIIIPoints() []paperPoint {
	an, err := reliability.NewAnalyzer(drift.RMetricConfig())
	if err != nil {
		panic(err) // the default configuration is valid by construction
	}
	pts := make([]paperPoint, len(paperTableIII))
	for i, c := range paperTableIII {
		pts[i] = paperPoint{
			name:  fmt.Sprintf("Table III E=%d S=%g", c.e, c.s),
			paper: c.paper,
			repro: an.LER(c.e, c.s),
		}
	}
	return pts
}

// fig9Order is the paper's Figure 9 mean ordering. Schemes within one
// group are "≈" (within approxTol of each other); each group is strictly
// below the next.
var fig9Order = [][]string{{"Ideal", "TLC"}, {"Hybrid"}, {"LWT-4", "Select-4:2"}, {"Scrubbing"}, {"M-metric"}}

const approxTol = 0.03

// fig9Ordering checks Ideal ≈ TLC < Hybrid < LWT-4 ≈ Select-4:2 <
// Scrubbing < M-metric on the Figure 9 means.
func fig9Ordering(m *report.Matrix) error {
	_, means, err := m.Normalized("Ideal", report.ExecTime)
	if err != nil {
		return err
	}
	mean := map[string]float64{}
	for j, name := range m.Schemes {
		mean[name] = means[j]
	}
	return checkOrder(fig9Order, mean)
}

func checkOrder(order [][]string, v map[string]float64) error {
	prevMax, prevGroup := math.Inf(-1), ""
	for _, group := range order {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, name := range group {
			x, ok := v[name]
			if !ok {
				return fmt.Errorf("ordering: no value for %s", name)
			}
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if hi/lo-1 > approxTol {
			return fmt.Errorf("ordering: %s differ by %.1f%%, want within %.0f%%",
				strings.Join(group, " ≈ "), 100*(hi/lo-1), 100*approxTol)
		}
		if lo <= prevMax {
			return fmt.Errorf("ordering: %s (%.4f) not above %s (%.4f)",
				strings.Join(group, " ≈ "), lo, prevGroup, prevMax)
		}
		prevMax, prevGroup = hi, strings.Join(group, " ≈ ")
	}
	return nil
}
