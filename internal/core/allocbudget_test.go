package core

import (
	"math"
	"runtime"
	"testing"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/watchdog"
)

// runMallocs executes one full training run and returns the heap objects
// it allocated, counted across all goroutines (crew members, compute
// pool) via runtime.MemStats.Mallocs.
func runMallocs(t *testing.T, cfg Config, train *dataset.Dataset) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg, train, RunOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != cfg.MaxIter {
		t.Fatalf("history length %d, want %d", len(res.History), cfg.MaxIter)
	}
	return int64(after.Mallocs - before.Mallocs)
}

// marginalAllocs measures the per-iteration allocation rate of a config as
// the slope between two runs differing only in MaxIter, so every one-time
// cost — fabric, crew, workspaces, first-rounds buffer growth — cancels.
// The minimum over trials filters runtime background noise (timers,
// scheduler growth).
func marginalAllocs(t *testing.T, base Config, train *dataset.Dataset, n1, n2 int) float64 {
	t.Helper()
	best := math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		c1, c2 := base, base
		c1.MaxIter, c2.MaxIter = n1, n2
		m1 := runMallocs(t, c1, train)
		m2 := runMallocs(t, c2, train)
		if perIter := float64(m2-m1) / float64(n2-n1); perIter < best {
			best = perIter
		}
	}
	return best
}

// TestSteadyStateAllocBudget pins the tentpole guarantee: a warmed
// steady-state iteration of the flat-PSR / BSP / sparse engine — the
// repo's allocation benchmark composition — allocates nothing: under one
// object per iteration, so no per-round allocation survives. Guards the
// reuse discipline of DESIGN.md "Memory model & buffer ownership"; a
// regression here means some per-round buffer went back on the heap.
func TestSteadyStateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAADMM, 3, 2)
	cfg.EvalEvery = 1 << 20 // objective eval is off the steady-state path

	got := marginalAllocs(t, cfg, train, 30, 130)
	t.Logf("steady-state allocations: %.2f objects/iter (budget < 1)", got)
	if got >= 1 {
		t.Fatalf("steady-state allocations: %.2f objects/iter, want < 1", got)
	}
}

// TestRobustSteadyStateAllocBudget pins the robust path's perf gate: with
// the contribution screen scoring every encoded contribution and the
// trimmed-mean combine replacing the running sum, a warmed steady-state
// iteration must allocate nothing beyond the baseline budget — the screen
// updates EWMAs in place and the robust scratch is owned by the reducer
// and recycled across rounds.
func TestRobustSteadyStateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAADMM, 3, 2)
	cfg.EvalEvery = 1 << 20
	cfg.Aggregator = collective.AggTrimmedMeanName
	cfg.Screen = watchdog.ScreenConfig{Enabled: true}

	const budget = 8.0
	got := marginalAllocs(t, cfg, train, 30, 130)
	t.Logf("robust steady-state allocations: %.2f objects/iter (budget %g)", got, budget)
	if got > budget {
		t.Fatalf("robust steady-state allocations: %.2f objects/iter exceeds budget %g", got, budget)
	}
}

// runAllocBytes is runMallocs in bytes (runtime.MemStats.TotalAlloc).
func runAllocBytes(t *testing.T, cfg Config, train *dataset.Dataset) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, train, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestTreeRoundAllocatesBelowDimension pins the one data plane's point: a
// warmed psra-hgadmm iteration allocates in proportion to what travels —
// the contributions' and the iterate's nonzeros — never a dimension-sized
// vector. Delivering z densely (one ToDense per round) alone cost 8·dim
// bytes per iteration.
func TestTreeRoundAllocatesBelowDimension(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const dim = 60000
	train, _, err := dataset.Generate(dataset.SynthConfig{
		Name: "wide", Dim: dim, TrainRows: 240, TestRows: 10, RowNNZ: 12,
		ZipfS: 1.3, SignalNNZ: 30, NoiseFlip: 0.02, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(PSRAHGADMM, 2, 2)
	cfg.EvalEvery = 1 << 20

	best := math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		c1, c2 := cfg, cfg
		c1.MaxIter, c2.MaxIter = 20, 60
		b1 := runAllocBytes(t, c1, train)
		b2 := runAllocBytes(t, c2, train)
		best = math.Min(best, float64(b2-b1)/40)
	}
	t.Logf("tree steady state: %.0f bytes/iter (8·dim = %d)", best, 8*dim)
	if best >= 8*dim {
		t.Fatalf("tree steady state allocates %.0f bytes/iter, want < 8·dim = %d", best, 8*dim)
	}
}

// TestStrategyAllocBudgets holds every consensus strategy to the flat
// gate of TestSteadyStateAllocBudget: opening, delivering and settling a
// round reuse the frame's buffers, and each strategy keeps its own round
// state — the tree's entries and merge aggregates, group-local's grouping,
// the model traces, z — in storage it reuses, so a warmed iteration
// (4×2 world) allocates under one object.
//
// Every row has an elastic twin, held to the same gate and to what the
// row itself measures: being able to survive a death costs a fault-free
// run nothing per iteration. While a blocked
// member was unwound by polling, every parked receive of an elastic run
// armed and stopped a timer — 53.5 objects/iteration on flat psra-admm
// against 0 fail-stop.
func TestStrategyAllocBudgets(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	train, _ := testData(t, 240)
	for _, alg := range []Algorithm{
		PSRAADMM, GCADMM, ADADMM, PSRAHGADMM, GRADMM, ADMMLib, PSRAHGADMMGroup, PSRAHGADMMShardedSSP,
	} {
		for _, elastic := range []bool{false, true} {
			name := string(alg)
			if elastic {
				name += "-elastic"
			}
			t.Run(name, func(t *testing.T) {
				cfg := baseConfig(alg, 4, 2)
				cfg.EvalEvery = 1 << 20
				cfg.Elastic = elastic
				got := marginalAllocs(t, cfg, train, 30, 130)
				t.Logf("steady-state allocations: %.2f objects/iter (budget < 1)", got)
				if got >= 1 {
					t.Fatalf("steady-state allocations: %.2f objects/iter, want < 1", got)
				}
				if elastic {
					cfg.Elastic = false
					if failStop := marginalAllocs(t, cfg, train, 30, 130); got > failStop+2 {
						t.Fatalf("elastic allocates %.2f objects/iter, the same run fail-stop %.2f", got, failStop)
					}
				}
			})
		}
	}
}
