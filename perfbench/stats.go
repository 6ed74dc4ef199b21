package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure is never one or
// two stragglers.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the two middle values for an
// even count); it is NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the steadiness report's spreads match ones computed there.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// spread is (Q3-Q1)/median, the run-to-run noise measure the bounds in
// BENCHMARK.json are judged against.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		if q3 == q1 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses when fewer than minBeyond samples lie beyond the rank, which is
// the difference between a tail statistic and the slowest few samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// staircase searches for the highest rate that passes a noisy monotone
// test (passes below a threshold, fails above it). It is an up-down
// staircase with a shrinking step: each pass raises the rate by a factor
// 1+step, each failure lowers it by the same factor, and every reversal
// halves the step until it reaches minStep. The probed rates then settle
// around the rate that passes half the time, and the estimate is their
// median, so it rests on every probe at the final step rather than on
// the last few of a bisection. minStep must be finer than half the
// max_rps regression bound: one probe landing on the wrong side of the
// threshold then moves the estimate by less than the bound.
type staircase struct {
	rate, step, minStep, minRate float64
	last                         int // +1 after a pass, -1 after a failure
	probed                       []float64
}

func newStaircase(start, minRate, step, minStep float64) *staircase {
	return &staircase{rate: start, minRate: minRate, step: step, minStep: minStep}
}

// next is the rate to probe next.
func (s *staircase) next() (float64, error) {
	if s.rate < s.minRate {
		return 0, fmt.Errorf("no rate down to %.0f/s passes", s.minRate)
	}
	return s.rate, nil
}

// record takes the verdict of a probe at the rate next returned.
func (s *staircase) record(pass bool) {
	dir := -1
	if pass {
		dir = 1
	}
	if s.last != 0 && dir != s.last {
		s.step = math.Max(s.step/2, s.minStep)
	}
	s.last = dir
	if s.step == s.minStep {
		s.probed = append(s.probed, s.rate)
	}
	if pass {
		s.rate *= 1 + s.step
	} else {
		s.rate /= 1 + s.step
	}
}

// minStaircaseProbes is how many probes at the final step an estimate
// needs.
const minStaircaseProbes = 8

// estimate is the median rate of the probes made at the final step.
func (s *staircase) estimate() (float64, error) {
	if len(s.probed) < minStaircaseProbes {
		return 0, fmt.Errorf("staircase has %d probes at its final step, need %d", len(s.probed), minStaircaseProbes)
	}
	return median(s.probed), nil
}

// paperPoint pairs one reproduced value with the paper's value for it.
type paperPoint struct {
	name         string
	paper, repro float64
}

// paperErrPct is the mean of |repro/paper - 1| over the points, in percent.
func paperErrPct(points []paperPoint) (float64, error) {
	if len(points) == 0 {
		return 0, fmt.Errorf("no paper points")
	}
	var sum float64
	for _, p := range points {
		if p.paper == 0 {
			return 0, fmt.Errorf("%s: paper value is zero", p.name)
		}
		sum += math.Abs(p.repro/p.paper - 1)
	}
	return 100 * sum / float64(len(points)), nil
}
