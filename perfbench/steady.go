package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// steadiness runs the workload n times, each in a fresh child process
// with seeds seed..seed+n-1, and prints each end-to-end metric's median,
// quartiles and spread (Q3-Q1)/median against its bound. It fails when a
// run fails or is incorrect, or when a spread exceeds its bound. setup_s
// is reported but not gated on spread: its bound limits drift between the
// medians of two sets of runs, not run-to-run noise.
func steadiness(b *benchFile, workload string, seed int64, seconds, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d (seed %d): result line: %w", i+1, s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d (seed %d): %d of %d operations failed", i+1, s, res.Failed, res.Attempted)
		}
		fmt.Fprintf(os.Stderr, "perfbench: steady run %d/%d seed %d took %.1fs\n", i+1, n, s, time.Since(t0).Seconds())
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
		}
	}

	fmt.Printf("%s: %d runs, seeds %d..%d, %ds each\n", workload, n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-14s %12s %12s %12s %8s %6s  %s\n", "metric", "Q1", "median", "Q3", "spread", "bound", "verdict")
	var over []string
	for _, m := range b.EndToEnd {
		q1, q2, q3, err := quartiles(values[m.Name])
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		sp, _ := spread(values[m.Name])
		verdict := "ok"
		switch {
		case m.Name == "setup_s":
			verdict = "not gated"
		case sp > m.Bound:
			verdict = "OVER BOUND"
			over = append(over, m.Name)
		case sp > m.Bound/3:
			verdict = "above bound/3"
		}
		fmt.Printf("%-14s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%  %s\n",
			m.Name, q1, q2, q3, 100*sp, 100*m.Bound, verdict)
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}
