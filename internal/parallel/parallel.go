// Package parallel provides the bounded work-sharing loop the Monte-Carlo
// kernels shard over. Callers partition their state into independent
// shards (each owning its own RNG sub-stream) and let ForEach spread the
// shard work across a fixed worker count; determinism is the caller's
// contract — a shard body must touch only its own shard's state, so the
// result is independent of goroutine scheduling.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the machine's parallelism, capped so tiny shard counts
// don't spawn idle goroutines.
func DefaultWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) using at most `workers`
// goroutines (workers <= 0 picks DefaultWorkers). Work is handed out by
// an atomic counter, so the assignment of shards to goroutines varies
// between runs — fn must only write state owned by shard i.
// ForEach returns when every call has completed.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers(n)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// SplitMix64 is the standard SplitMix64 mixer. It derives well-spread,
// deterministic seeds and hashes from small integers: per-shard RNG
// sub-streams from (seed, shard), per-job seeds from a campaign seed, and
// per-line placement from line addresses.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
