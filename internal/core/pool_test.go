package core

import (
	"math"
	"runtime"
	"testing"

	"psrahgadmm/internal/shard"
)

// poolWorkers builds a 2×4 world's workers on the replicated one-block
// map, ready for x-updates.
func poolWorkers(t *testing.T) (Config, []*worker) {
	t.Helper()
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAHGADMM, 2, 4)
	cfg.fill()
	ws := newWorkers(cfg, train)
	replicated := shard.FullMap(shard.NewPartition(train.Dim(), 1), len(ws))
	for _, w := range ws {
		w.initStore(replicated)
	}
	return cfg, ws
}

// sequentialTimes is the reference: rounds of x-updates, one worker after
// another on the caller, each round's times in worker order.
func sequentialTimes(cfg Config, ws []*worker, rounds int) [][]float64 {
	out := make([][]float64, rounds)
	for iter := range out {
		out[iter] = make([]float64, len(ws))
		for i, w := range ws {
			out[iter][i] = w.xUpdate(cfg, iter)
			if out[iter][i] <= 0 {
				panic("core: an x-update cost no time; the pool tests would compare nothing")
			}
		}
	}
	return out
}

// poolRound runs one round through pool with its times scratch poisoned
// first, so an index nobody solved reads NaN, and returns a copy.
func poolRound(pool *computePool, cfg Config, ws []*worker, iter int) []float64 {
	pool.times = pool.times[:cap(pool.times)]
	for i := range pool.times {
		pool.times[i] = math.NaN()
	}
	return append([]float64(nil), pool.run(cfg, ws, iter)...)
}

// TestComputePoolAtOnePRunsOnTheCaller: built at GOMAXPROCS 1, the pool
// starts no goroutine, the caller solves every subproblem, and the times
// and iterates are those of solving them one after another.
func TestComputePoolAtOnePRunsOnTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 3
	cfg, ref := poolWorkers(t)
	want := sequentialTimes(cfg, ref, rounds)
	_, ws := poolWorkers(t)
	before := runtime.NumGoroutine()
	pool := newComputePool()
	defer pool.close()
	if after := runtime.NumGoroutine(); pool.helpers != 0 || after > before {
		t.Fatalf("pool at one P: %d helpers, goroutines %d → %d, want none started", pool.helpers, before, after)
	}
	for iter := range rounds {
		if got := poolRound(pool, cfg, ws, iter); !bitsEqual(got, want[iter]) {
			t.Fatalf("round %d times %v, want %v", iter, got, want[iter])
		}
	}
	for i := range ws {
		if !bitsEqual(ws[i].xA, ref[i].xA) {
			t.Fatalf("worker %d's x differs from the sequential solve", i)
		}
	}
}

// TestComputePoolOutlivesGOMAXPROCS: GOMAXPROCS changes after the pool is
// built, in both directions. No round deadlocks, every subproblem of every
// round is solved, and the times are the sequential ones, bit for bit.
func TestComputePoolOutlivesGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 4, 2, 1, 3}
	cfg, ref := poolWorkers(t)
	want := sequentialTimes(cfg, ref, len(procs))
	_, ws := poolWorkers(t)
	pool := newComputePool()
	defer pool.close()
	for iter, n := range procs {
		runtime.GOMAXPROCS(n)
		if got := poolRound(pool, cfg, ws, iter); !bitsEqual(got, want[iter]) {
			t.Fatalf("round %d at GOMAXPROCS %d (pool built with %d helpers): times %v, want %v", iter, n, pool.helpers, got, want[iter])
		}
	}
	if got := pool.run(cfg, ws[:0], len(procs)); len(got) != 0 {
		t.Fatalf("empty round returned %d times", len(got))
	}
}
