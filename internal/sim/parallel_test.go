package sim

import (
	"fmt"
	"reflect"
	"testing"

	"readduo/internal/parallel"
	"readduo/internal/trace"
)

// Parallelism lives across runs: a campaign runs many independent jobs at
// once in one process, and those jobs share the process-wide probability
// caches. The whole-system contract: for any scheme and bank count, runs
// executed concurrently on `shards` goroutines return Results
// bit-identical to a lone serial run — same execution time, same stats,
// same energy, same silent-error draws.

func parallelTestSchemes() []Scheme {
	schemes := []Scheme{
		Ideal(), Scrubbing(), MMetric(), TLC(), Hybrid(), LWT(4, true),
	}
	// Physics families: temperature-scaled drift, the read-disturb channel
	// (its per-read rng draws must not leak between concurrent runs), and
	// LWC's parity-group write costing.
	for _, spec := range []string{
		"scrubbing:temp=250",
		"hybrid:temp=330,disturb=0.001",
		"lwc:r=16",
		"lwc:r=8,disturb=0.0005",
	} {
		s, err := Parse(spec)
		if err != nil {
			panic(err)
		}
		schemes = append(schemes, s)
	}
	return schemes
}

func runOnce(t *testing.T, scheme Scheme, banks int) *Result {
	t.Helper()
	b, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc benchmark missing")
	}
	cfg := DefaultConfig(b)
	cfg.CPU.InstrBudget = 8_000
	cfg.Seed = 7
	cfg.Mem.Banks = banks
	res, err := Run(cfg, scheme)
	if err != nil {
		t.Errorf("Run(%s, banks=%d): %v", scheme.Name(), banks, err)
	}
	return res
}

func TestParallelEngineBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is slow")
	}
	for _, scheme := range parallelTestSchemes() {
		for _, banks := range []int{1, 4, 16} {
			serial := runOnce(t, scheme, banks)
			for _, shards := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%s/banks=%d/shards=%d", scheme.Name(), banks, shards)
				t.Run(name, func(t *testing.T) {
					if banks == 1 {
						// Once per scheme and shard count, the runs race
						// each other to build the shared caches from cold.
						PurgeSharedCaches()
					}
					results := make([]*Result, shards)
					parallel.ForEach(shards, shards, func(i int) {
						results[i] = runOnce(t, scheme, banks)
					})
					for i, got := range results {
						if !reflect.DeepEqual(serial, got) {
							t.Errorf("run %d of %d diverges:\n serial:     %+v\n concurrent: %+v", i, shards, serial, got)
						}
					}
				})
			}
		}
	}
}
