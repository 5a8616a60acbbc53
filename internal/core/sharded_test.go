package core

import (
	"math"
	"testing"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
)

// The sharded-state equivalence suite. The refactor's contract has two
// regimes: under FULL subscription (every rank subscribed to every block)
// the sharded engine must reproduce the replicated engine's optimization
// trajectory bit for bit — same z, same objectives, same residuals; under
// PARTIAL subscription it solves the same problem with a per-block
// contributor scaling, converging to the same optimum with a fraction of
// the per-rank memory.

// mathFieldsEqual compares the optimization-trajectory fields of two
// IterStats bitwise (NaN == NaN). Wire accounting (Bytes, CommTime) is
// deliberately excluded: the shard-aware collective runs a different
// schedule, so its traffic differs even when the math is identical.
func mathFieldsEqual(a, b IterStat) bool {
	feq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Iter == b.Iter &&
		feq(a.Objective, b.Objective) && feq(a.Accuracy, b.Accuracy) &&
		feq(a.PrimalRes, b.PrimalRes) && feq(a.DualRes, b.DualRes) &&
		feq(a.Rho, b.Rho)
}

func runPair(t *testing.T, cfg Config, train, test *dataset.Dataset, blocks int) (*Result, *Result) {
	t.Helper()
	dense, err := Run(cfg, train, RunOptions{Test: test})
	if err != nil {
		t.Fatalf("replicated run: %v", err)
	}
	sh := cfg
	sh.ShardedState = true
	sh.ShardBlocks = blocks
	sharded, err := Run(sh, train, RunOptions{Test: test})
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	return dense, sharded
}

// TestShardedFullSubscriptionBitIdentical: with one block spanning the
// whole dimension, every rank subscribes to everything, so the sharded
// engine's per-block machinery — the compact store, the restricted sparse
// views, the subscriber-count z-scaling, the shard-aware collective — must
// reduce exactly to the replicated recursion for every supported topology.
func TestShardedFullSubscriptionBitIdentical(t *testing.T) {
	train, test := testData(t, 160)
	for _, alg := range []Algorithm{PSRAADMM, GCADMM, PSRAHGADMM} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := baseConfig(alg, 4, 2)
			cfg.MaxIter = 10
			cfg.EvalEvery = 2
			cfg.GroupThreshold = 2
			dense, sharded := runPair(t, cfg, train, test, 1)
			for i := range dense.History {
				if !mathFieldsEqual(dense.History[i], sharded.History[i]) {
					t.Fatalf("iter %d diverged:\nreplicated %+v\nsharded    %+v",
						i, dense.History[i], sharded.History[i])
				}
			}
			if !vec.Equal(dense.Z, sharded.Z) {
				t.Fatal("final iterates differ bitwise")
			}
		})
	}
}

// denseTouchData builds a problem where every worker's shard touches every
// block of an 8-block partition — full subscription with real multi-block
// structure, so the per-block code paths (block cursors, restricted
// assembly, per-block counts) all run while the bit-identity contract
// still applies.
func denseTouchData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Generate(dataset.SynthConfig{
		Name: "full-touch", Dim: 48, TrainRows: 240, TestRows: 40, RowNNZ: 10,
		ZipfS: 1.1, SignalNNZ: 20, NoiseFlip: 0.02, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// TestShardedMultiBlockBitIdentical is the property test of the bitwise
// contract on a REAL multi-block partition: flat, star, and tree sharded
// runs must follow the replicated trajectory exactly whenever subscription
// is full — which the test verifies from the actual shard layout rather
// than assuming.
func TestShardedMultiBlockBitIdentical(t *testing.T) {
	train, test := denseTouchData(t)
	const blocks = 8
	for _, alg := range []Algorithm{PSRAADMM, GCADMM, PSRAHGADMM} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := baseConfig(alg, 3, 2)
			cfg.MaxIter = 8
			cfg.EvalEvery = 2
			cfg.GroupThreshold = 2

			// Precondition, not assumption: every rank must touch all 8
			// blocks, or the bitwise claim does not apply.
			ws := newWorkers(cfg, train)
			active := make([][]int32, len(ws))
			for i, w := range ws {
				active[i] = w.active
			}
			m := shard.NewMap(shard.NewPartition(train.Dim(), blocks), active)
			if !m.FullSubscription() {
				t.Fatal("test data does not give full subscription; pick denser data")
			}

			dense, sharded := runPair(t, cfg, train, test, blocks)
			for i := range dense.History {
				if !mathFieldsEqual(dense.History[i], sharded.History[i]) {
					t.Fatalf("iter %d diverged:\nreplicated %+v\nsharded    %+v",
						i, dense.History[i], sharded.History[i])
				}
			}
			if !vec.Equal(dense.Z, sharded.Z) {
				t.Fatal("final iterates differ bitwise")
			}
		})
	}
}

// TestShardedPartialSubscriptionMemoryAndConvergence: at 16 ranks on sparse
// synthetic data, every rank of either placement holds at most 2·dim bytes
// of consensus state — a quarter of one dense z — while the sharded engine
// converges to within 1e-3 relative objective of the replicated one, and
// its shard-aware collective moves fewer bytes.
func TestShardedPartialSubscriptionMemoryAndConvergence(t *testing.T) {
	train, _, err := dataset.Generate(dataset.SynthConfig{
		Name: "shard-mem", Dim: 16000, TrainRows: 480, TestRows: 8, RowNNZ: 6,
		ZipfS: 1.4, SignalNNZ: 60, NoiseFlip: 0.02, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(PSRAADMM, 8, 2) // 16 ranks
	cfg.MaxIter = 80
	cfg.EvalEvery = cfg.MaxIter
	dense, sharded := runPair(t, cfg, train, nil, 128)

	dRB := dense.History[len(dense.History)-1].ResidentBytes
	sRB := sharded.History[len(sharded.History)-1].ResidentBytes
	if dRB <= 0 || sRB <= 0 {
		t.Fatalf("resident bytes not reported: dense=%d sharded=%d", dRB, sRB)
	}
	if bound := int64(2 * train.Dim()); dRB > bound || sRB > bound {
		t.Fatalf("per-rank consensus state: replicated %d B, sharded %d B; want each <= %d B (a quarter of a dense z)", dRB, sRB, bound)
	}
	fd, fs := dense.FinalObjective(), sharded.FinalObjective()
	if rel := math.Abs(fs-fd) / math.Abs(fd); rel > 1e-3 {
		t.Fatalf("sharded objective %v vs replicated %v: rel %v > 1e-3", fs, fd, rel)
	}
	if sharded.TotalBytes >= dense.TotalBytes {
		t.Fatalf("shard-aware collective moved %d bytes, replicated %d: expected fewer", sharded.TotalBytes, dense.TotalBytes)
	}
}

// TestShardedChaosRejoinResume: the fail-recover story under sharded
// state. A rank dies mid-run and rejoins; the run checkpoints every
// iteration into sharded PSCK snapshots (each rank's z entry is its
// compact subscribed-block store); cutting the run and resuming from the
// snapshot must reproduce the uninterrupted chaos run bit for bit — which
// it can only do if the killed-and-rejoined rank's owned blocks came back
// intact from the snapshot and the rejoin warm-start.
func TestShardedChaosRejoinResume(t *testing.T) {
	train, test := testData(t, 160)
	const cut = 9
	mk := func() Config {
		cfg := baseConfig(PSRAHGADMMSharded, 4, 2)
		cfg.MaxIter = 14
		cfg.GroupThreshold = 2
		cfg.Elastic = true
		cfg.Faults = &transport.FaultPlan{
			Seed:              13,
			KillAtIteration:   map[int]int{3: 4},
			RejoinAtIteration: map[int]int{3: 7},
		}
		return cfg
	}

	golden, err := Run(mk(), train, RunOptions{Test: test})
	if err != nil {
		t.Fatal(err)
	}
	if golden.Degraded || golden.LiveWorkers != 8 {
		t.Fatalf("chaos run did not recover: live=%d degraded=%v", golden.LiveWorkers, golden.Degraded)
	}

	store := checkpoint.NewMemStore()
	cfgCut := mk()
	cfgCut.MaxIter = cut
	if _, err := Run(cfgCut, train, RunOptions{
		Test:       test,
		Checkpoint: &CheckpointOptions{Store: store, Every: 1},
	}); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(mk(), train, RunOptions{
		Test:       test,
		Checkpoint: &CheckpointOptions{Store: store, Every: 1, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.History) != len(golden.History)-cut {
		t.Fatalf("resumed history %d iterations, want %d", len(resumed.History), len(golden.History)-cut)
	}
	for i, got := range resumed.History {
		if !statBitEqual(got, golden.History[cut+i]) {
			t.Fatalf("iter %d diverged after resume:\nresumed %+v\ngolden  %+v", cut+i, got, golden.History[cut+i])
		}
	}
	if !vec.Equal(resumed.Z, golden.Z) {
		t.Fatal("resumed final iterate differs from uninterrupted chaos run")
	}
}

// TestShardedRejectsUnsupportedCompositions: sharded state is defined for
// flat/star/tree consensus only (any sync model); the ring hierarchy and
// group-local consensus must be rejected up front, not fail mysteriously
// mid-run. SSP/async compositions are no longer rejected — the StateStore
// layer made them first-class (see TestShardedSSPAndAsyncConverge).
func TestShardedRejectsUnsupportedCompositions(t *testing.T) {
	train, _ := testData(t, 80)
	for _, alg := range []Algorithm{GRADMM, PSRAHGADMMGroup, ADMMLib} {
		cfg := baseConfig(alg, 2, 2)
		cfg.MaxIter = 2
		cfg.ShardedState = true
		if _, err := Run(cfg, train, RunOptions{}); err == nil {
			t.Fatalf("%s accepted sharded state", alg)
		}
	}
}

// TestShardedSSPAndAsyncConverge is the StateStore refactor's acceptance
// test: the compositions the old "sharded state requires BSP" guard
// forbade must now be first-class. At 64 ranks with real compute jitter
// (so SSP staleness actually occurs — stale nodes' cached contributions
// keep feeding their blocks while the fresh quorum advances), both
// psra-hgadmm-sharded-ssp and psra-hgadmm-sharded-async must converge to
// within 1e-3 relative objective error of the dense BSP reference.
func TestShardedSSPAndAsyncConverge(t *testing.T) {
	train, _, err := dataset.Generate(dataset.SynthConfig{
		Name: "shard-ssp", Dim: 2000, TrainRows: 640, TestRows: 8, RowNNZ: 8,
		ZipfS: 1.3, SignalNNZ: 50, NoiseFlip: 0.02, Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(alg Algorithm, iters int) Config {
		cfg := baseConfig(alg, 16, 4) // 64 ranks
		cfg.MaxIter = iters
		cfg.EvalEvery = cfg.MaxIter
		cfg.GroupThreshold = 4
		cfg.Jitter = simnet.Jitter{Seed: 7, Amp: 0.5}
		return cfg
	}
	ref, err := Run(mk(PSRAHGADMM, 1600), train, RunOptions{})
	if err != nil {
		t.Fatalf("dense BSP reference: %v", err)
	}
	fRef := ref.FinalObjective()
	// Staleness slows per-round progress (a stale node's cached w keeps
	// feeding its blocks until it refreshes), so the relaxed barriers get
	// a longer horizon to reach the same optimum — the contract is WHERE
	// they converge, not how fast. Async (quorum of one) is the stalest
	// composition and needs the longest tail.
	for _, tc := range []struct {
		alg   Algorithm
		iters int
	}{
		{PSRAHGADMMShardedSSP, 1600},
		{PSRAHGADMMShardedAsync, 4800},
	} {
		alg := tc.alg
		t.Run(string(alg), func(t *testing.T) {
			cfg := mk(alg, tc.iters)
			cfg.ShardBlocks = 256
			res, err := Run(cfg, train, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rb := res.History[len(res.History)-1].ResidentBytes; rb <= 0 {
				t.Fatalf("resident bytes not reported under %s: %d", alg, rb)
			}
			f := res.FinalObjective()
			if rel := math.Abs(f-fRef) / math.Abs(fRef); rel > 1e-3 {
				t.Fatalf("%s objective %v vs dense BSP %v: rel %v > 1e-3", alg, f, fRef, rel)
			}
		})
	}
}

// TestShardedSSPChaosRejoinConverges: the elastic story under the new
// sharded×SSP composition. A rank dies mid-run and rejoins; the run must
// complete with the world whole again and land near the undisturbed run's
// optimum. Bit-exactness is NOT expected — an SSP rejoin is a warm start
// that perturbs admission order — so the contract is convergence.
func TestShardedSSPChaosRejoinConverges(t *testing.T) {
	train, test := testData(t, 160)
	mk := func() Config {
		cfg := baseConfig(PSRAHGADMMShardedSSP, 4, 2)
		cfg.MaxIter = 40
		cfg.EvalEvery = cfg.MaxIter
		cfg.GroupThreshold = 2
		cfg.Elastic = true
		cfg.Jitter = simnet.Jitter{Seed: 11, Amp: 0.3}
		return cfg
	}
	calm, err := Run(mk(), train, RunOptions{Test: test})
	if err != nil {
		t.Fatalf("undisturbed run: %v", err)
	}
	cfg := mk()
	cfg.Faults = &transport.FaultPlan{
		Seed:              13,
		KillAtIteration:   map[int]int{3: 4},
		RejoinAtIteration: map[int]int{3: 9},
	}
	chaos, err := Run(cfg, train, RunOptions{Test: test})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if chaos.Degraded || chaos.LiveWorkers != 8 {
		t.Fatalf("chaos run did not recover: live=%d degraded=%v", chaos.LiveWorkers, chaos.Degraded)
	}
	fc, fu := chaos.FinalObjective(), calm.FinalObjective()
	if rel := math.Abs(fc-fu) / math.Abs(fu); rel > 1e-2 {
		t.Fatalf("kill+rejoin objective %v vs undisturbed %v: rel %v > 1e-2", fc, fu, rel)
	}
}

// TestResidentBytesReportedEverySyncModel pins the satellite fix: the
// per-rank consensus-state footprint must be reported every iteration
// under BSP, SSP, AND async — replicated and sharded alike — not only on
// the BSP path the pre-StateStore engine measured.
func TestResidentBytesReportedEverySyncModel(t *testing.T) {
	train, _ := testData(t, 80)
	for _, alg := range []Algorithm{
		PSRAHGADMMSharded,      // sharded × BSP
		PSRAHGADMMShardedSSP,   // sharded × SSP
		PSRAHGADMMShardedAsync, // sharded × async
		ADADMM,                 // replicated × SSP (star)
		PSRAADMMAsync,          // replicated × async (flat)
	} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := baseConfig(alg, 2, 2)
			cfg.MaxIter = 6
			res, err := Run(cfg, train, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.History {
				if s.ResidentBytes <= 0 {
					t.Fatalf("%s iter %d: ResidentBytes %d, want > 0", alg, s.Iter, s.ResidentBytes)
				}
			}
		})
	}
}

// TestAgeScoringSmallKConvergence is the codec satellite's acceptance at
// the integration level: at a starvation-inducing selection size (k=4 of
// a ~200-coordinate support) the age-weighted run must converge — real
// progress, and a final objective within a modest factor of plain
// magnitude selection. Age scoring trades a little top-coordinate
// bandwidth for shipping starved mass, so exact parity is not expected;
// what the test rules out is the round-robin degeneration an unbounded
// age boost produces (2–3× worse objectives before ageBoostCap bounded
// the multiplier). The starvation-rescue property itself is proven
// deterministically in exchange/age_test.go.
func TestAgeScoringSmallKConvergence(t *testing.T) {
	train, _ := testData(t, 160)
	run := func(age bool) *Result {
		cfg := baseConfig(PSRAADMMTopK, 4, 2)
		cfg.MaxIter = 60
		cfg.EvalEvery = cfg.MaxIter
		cfg.CodecTopK = 4
		cfg.CodecAgeScoring = age
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	aged := run(true)
	if f0 := plain.History[0].Objective; plain.FinalObjective() >= 0.8*f0 {
		t.Fatalf("plain top-k made no real progress: %v -> %v", f0, plain.FinalObjective())
	}
	if f0 := aged.History[0].Objective; aged.FinalObjective() >= 0.8*f0 {
		t.Fatalf("age-scored top-k made no real progress: %v -> %v", f0, aged.FinalObjective())
	}
	if aged.FinalObjective() > plain.FinalObjective()*1.15 {
		t.Fatalf("age scoring diverged from plain magnitude at small k: %v vs %v (want within 15%%)",
			aged.FinalObjective(), plain.FinalObjective())
	}
}
