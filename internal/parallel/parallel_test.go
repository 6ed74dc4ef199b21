package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		var visits [n]atomic.Int32
		ForEach(workers, n, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	ForEach(4, 0, func(i int) { t.Error("fn called for n=0") })
	ForEach(4, -3, func(i int) { t.Error("fn called for n<0") })
}

func TestDefaultWorkersBounds(t *testing.T) {
	if got := DefaultWorkers(1); got != 1 {
		t.Errorf("DefaultWorkers(1) = %d", got)
	}
	if got := DefaultWorkers(1 << 20); got > runtime.GOMAXPROCS(0) || got < 1 {
		t.Errorf("DefaultWorkers(big) = %d out of range", got)
	}
}

func TestSplitMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := SplitMix64(i)
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
	if SplitMix64(42) != SplitMix64(42) {
		t.Error("SplitMix64 not deterministic")
	}
}
