// Package edap implements the composite evaluation metrics of the
// ReadDuo paper, chiefly EDAP — the Energy-Delay-Area product the paper
// introduces to judge performance, energy consumption, and storage density
// together (§V-C, Figure 11) — plus small helpers for normalizing and
// aggregating per-benchmark results.
package edap

import (
	"fmt"
	"math"
)

// EDAP returns energy x delay x area. Units cancel in the normalized
// comparisons the paper reports, so callers pass any consistent units
// (pJ, seconds, cells per line).
func EDAP(energy, delay, area float64) (float64, error) {
	if energy < 0 || delay < 0 || area < 0 {
		return 0, fmt.Errorf("edap: EDAP factors must be nonnegative (E=%v D=%v A=%v)",
			energy, delay, area)
	}
	return energy * delay * area, nil
}

// Normalize divides each value by the reference (e.g. the TLC design point
// in Figure 11, or Ideal in Figures 9/10). A zero reference is an error.
func Normalize(values []float64, reference float64) ([]float64, error) {
	if reference == 0 {
		return nil, fmt.Errorf("edap: zero reference")
	}
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v / reference
	}
	return out, nil
}

// GeoMean returns the geometric mean, the conventional aggregate for
// normalized execution times across a benchmark suite.
func GeoMean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("edap: empty input")
	}
	var logSum float64
	for _, v := range values {
		if v <= 0 {
			return 0, fmt.Errorf("edap: geometric mean needs positive values, got %v", v)
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values))), nil
}

// Mean returns the arithmetic mean.
func Mean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("edap: empty input")
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values)), nil
}

// Improvement returns how much better (smaller) `value` is than `baseline`
// as a fraction: 0.37 means 37% lower, the form the paper quotes ("ReadDuo
// achieves 37% improvement over existing solutions").
func Improvement(baseline, value float64) (float64, error) {
	if baseline <= 0 {
		return 0, fmt.Errorf("edap: baseline must be positive, got %v", baseline)
	}
	return 1 - value/baseline, nil
}
