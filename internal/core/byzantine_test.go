package core

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
)

// TestGoldenMeanAggregatorBitIdentical pins the Aggregator axis's escape
// hatch against the pre-robust goldens: explicitly selecting "mean" must
// route every variant — replicated and sharded — through the unmodified
// sum kernels, reproducing the golden histories bit for bit. If this
// fails, the robust plumbing leaked into the default path.
func TestGoldenMeanAggregatorBitIdentical(t *testing.T) {
	train, test := testData(t, 120)
	for _, gc := range goldenCases() {
		if v, _ := Lookup(gc.cfg().Algorithm); v.Aggregator != "" && v.Aggregator != collective.AggMeanName {
			continue // robust goldens: "mean" would change the algorithm
		}
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg()
			cfg.Aggregator = collective.AggMeanName // explicit, not inherited
			res, err := Run(cfg, train, RunOptions{Test: test})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFromResult(res)
			data, err := os.ReadFile(filepath.Join("testdata", "golden", gc.name+".json"))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			var want goldenRun
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if len(got.History) != len(want.History) {
				t.Fatalf("history length %d, golden %d", len(got.History), len(want.History))
			}
			for i := range want.History {
				if got.History[i] != want.History[i] {
					t.Fatalf("iter %d: explicit mean diverged from the pre-robust golden:\n got %+v\nwant %+v",
						i, got.History[i], want.History[i])
				}
			}
			if got.ZBitsFNV != want.ZBitsFNV {
				t.Fatalf("final iterate hash %s, golden %s", got.ZBitsFNV, want.ZBitsFNV)
			}
		})
	}
}

// TestExplicitMeanMatchesDefaultAcrossVariants extends the bit-identity
// claim beyond the golden configurations: for every registered variant
// whose axis is the mean, Aggregator:"mean" and the empty default must be
// indistinguishable, down to the last bit of the final iterate.
func TestExplicitMeanMatchesDefaultAcrossVariants(t *testing.T) {
	train, _ := testData(t, 120)
	for _, v := range Variants() {
		if v.Aggregator != "" && v.Aggregator != collective.AggMeanName {
			continue // robust variants: "mean" would change the algorithm
		}
		v := v
		t.Run(string(v.Name), func(t *testing.T) {
			run := func(agg string) *Result {
				cfg := baseConfig(v.Name, 2, 2)
				cfg.MaxIter = 8
				cfg.Aggregator = agg
				res, err := Run(cfg, train, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			// Compare through the golden bit-pattern rendering: unevaluated
			// stats are NaN, and NaN != NaN would fail a raw struct compare.
			def, explicit := goldenFromResult(run("")), goldenFromResult(run(collective.AggMeanName))
			if def.ZBitsFNV != explicit.ZBitsFNV {
				t.Fatal("explicit mean diverges bitwise from the default aggregator")
			}
			for i := range def.History {
				if def.History[i] != explicit.History[i] {
					t.Fatalf("iter %d history diverges between default and explicit mean", i)
				}
			}
		})
	}
}

// iidData builds a dense, noise-free dataset whose 16 contiguous row
// shards are statistically interchangeable. Both residual error sources of
// the robust run shrink with rows: the trimmed-mean's per-coordinate bias
// (skewed contributor distributions) and the lost-shard effect (a
// forever-quarantined attacker's data is excluded from training, shifting
// the reachable optimum). At 38400 rows the sum lands under the 1e-3
// acceptance bound with margin. The zero label noise is what separates the
// two aggregators by orders of magnitude: the data is separable, so the
// sign-flip's multiplicative shrink of the consensus sum pushes signal
// coordinates below the soft threshold and the mean run's loss explodes,
// while the robust run's floor stays a second-order statistical effect.
func iidData(t testing.TB) *dataset.Dataset {
	t.Helper()
	train, _, err := dataset.Generate(dataset.SynthConfig{
		Name: "byz", Dim: 40, TrainRows: 38400, TestRows: 10, RowNNZ: 16,
		ZipfS: 1.05, SignalNNZ: 15, NoiseFlip: 0, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train
}

// TestByzantineChaos16Ranks is the PR's acceptance gate: a 16-rank cluster
// with one persistently sign-flipping rank. With the trimmed-mean
// aggregator and the contribution screen, the attacker is quarantined
// within a bounded number of rounds and the run converges within 1e-3
// relative objective error of the clean mean reference; the default mean
// on the identical schedule demonstrably degrades.
func TestByzantineChaos16Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("16-rank chaos acceptance is not a -short test")
	}
	train := iidData(t)
	topo := simnet.Topology{Nodes: 4, WorkersPerNode: 4}
	// The attack starts mid-run: a sign-flip is norm-preserving, so the
	// screen needs partially-decayed Δ-norm baselines to see it — in the
	// first few iterations the honest steps are as large as the flip.
	const attacker, attackIter = 5, 10
	faults := func() *transport.FaultPlan {
		return &transport.FaultPlan{
			Seed: 1,
			ByzantineAtIteration: map[int]transport.ByzantineFault{
				attacker: {Iteration: attackIter, Mode: transport.ByzantineSignFlip},
			},
		}
	}
	base := func() Config {
		cfg := Config{
			Algorithm: PSRAADMM,
			Topo:      topo,
			Rho:       1.0,
			Lambda:    8.0,
			// The 1e-3 bound compares two CONVERGED objectives — run both
			// to their fixed points with tight inner solves, or the bound
			// measures leftover descent instead of the robust bias.
			MaxIter:   200,
			EvalEvery: 200, // only the endpoint matters
		}
		cfg.Tron.MaxIter = 40
		return cfg
	}

	// Evaluate every run's final iterate against the FULL dataset: the
	// engine's own Objective stat sums live shards only, so a run whose
	// attacker stays quarantined would report a smaller problem, not a
	// better solution.
	fullObj := func(z []float64) float64 { // rho/lambda must mirror base()
		scratch := make([]float64, train.Dim())
		obj := solver.NewLogisticProx(train.X, train.Labels, 1.0, scratch, scratch)
		return obj.LocalLoss(z) + 8.0*vec.Nrm1(z)
	}

	// Clean dense reference: the exact mean consensus, no faults.
	clean, err := Run(base(), train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fClean := fullObj(clean.Z)
	if isNaN(fClean) || fClean <= 0 {
		t.Fatalf("degenerate clean reference objective %v", fClean)
	}

	// Robust run: trimmed-mean + screen against the attacker.
	robustCfg := base()
	robustCfg.Aggregator = collective.AggTrimmedMeanName
	robustCfg.Screen = watchdog.ScreenConfig{Enabled: true}
	robustCfg.Faults = faults()
	robust, err := Run(robustCfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fRobust := fullObj(robust.Z)
	relRobust := math.Abs(fRobust-fClean) / fClean
	if isNaN(relRobust) || relRobust > 1e-3 {
		t.Errorf("trimmed-mean under attack: objective %v vs clean %v (rel %v, want <= 1e-3)",
			fRobust, fClean, relRobust)
	}

	// The attacker was quarantined within a bounded number of rounds of
	// turning: warmup is long since matured by attackIter, so the strike
	// limit is the only latency.
	quarantined := false
	for _, ev := range robust.Quarantines {
		if ev.Readmitted {
			t.Fatalf("a forever-attacker must never be readmitted: %+v", ev)
		}
		if ev.Rank != attacker {
			t.Fatalf("quarantined honest rank %d", ev.Rank)
		}
		if ev.Iter < attackIter || ev.Iter > attackIter+5 {
			t.Fatalf("quarantine at iteration %d, want within (%d, %d]", ev.Iter, attackIter, attackIter+5)
		}
		quarantined = true
	}
	if !quarantined {
		t.Fatal("attacker was never quarantined")
	}

	// The default mean on the identical schedule demonstrably degrades: the
	// sign-flipped contribution is folded straight into every z-update, the
	// shrunken consensus sum soft-thresholds signal coordinates away, and
	// the objective floor lands orders of magnitude above the robust run's
	// (the acceptance asks for ≥ 10×; the measured gap is ~100×).
	meanCfg := base()
	meanCfg.Faults = faults()
	mean, err := Run(meanCfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fMean := fullObj(mean.Z)
	relMean := math.Abs(fMean-fClean) / fClean
	if isNaN(relMean) || relMean < 10*maxf(relRobust, 1e-3) {
		t.Errorf("mean under attack should degrade >= 10x: rel %v vs robust rel %v", relMean, relRobust)
	}
	t.Logf("clean %.6f | trimmed+screen %.6f (rel %.2e) | mean under attack %.6f (rel %.2e)",
		fClean, fRobust, relRobust, fMean, relMean)

	// Seeded determinism: both acceptance runs replay bit-identically.
	robustAgain, err := Run(robustCfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fnvZ(robustAgain.Z) != fnvZ(robust.Z) {
		t.Fatal("robust chaos acceptance run is not deterministic")
	}
	meanAgain, err := Run(meanCfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fnvZ(meanAgain.Z) != fnvZ(mean.Z) {
		t.Fatal("mean chaos acceptance run is not deterministic")
	}
}

// TestByzantineBoundedWindowReadmission: a compromise window with an end
// (Until) lets the quarantine protocol demonstrate its second half — after
// the attack stops, QuarantineRounds consecutive clean probes re-admit the
// rank, and training finishes with the whole world live.
func TestByzantineBoundedWindowReadmission(t *testing.T) {
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAADMMRobust, 2, 2)
	cfg.MaxIter = 30
	cfg.Screen = watchdog.ScreenConfig{Enabled: true}
	cfg.Faults = &transport.FaultPlan{
		Seed: 3,
		ByzantineAtIteration: map[int]transport.ByzantineFault{
			2: {Iteration: 5, Mode: transport.ByzantineScale, Until: 12},
		},
	}
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var quarIter, readmitIter = -1, -1
	for _, ev := range res.Quarantines {
		if ev.Rank != 2 {
			t.Fatalf("unexpected quarantine event %+v", ev)
		}
		if ev.Readmitted {
			readmitIter = ev.Iter
		} else if quarIter < 0 {
			quarIter = ev.Iter
		}
	}
	if quarIter < 0 {
		t.Fatal("attacker was never quarantined")
	}
	if readmitIter < 0 {
		t.Fatalf("attacker was never readmitted after the window closed (events %+v)", res.Quarantines)
	}
	if readmitIter <= quarIter || readmitIter < 12 {
		t.Fatalf("readmission at %d, quarantine at %d, window closed at 12", readmitIter, quarIter)
	}
	final := res.History[len(res.History)-1]
	if final.LiveWorkers != cfg.Topo.Size() {
		t.Fatalf("final live workers %d, want the whole world %d", final.LiveWorkers, cfg.Topo.Size())
	}
}

// TestByzantineReachesDenseRing: a scheduled Byzantine rank and the
// contribution screen act on the dense-exchange ring exactly as on every
// sparse one. The dense exchange rounds the node partial rather than each
// contribution, so it skips the codec half of the encodeSparse chokepoint —
// and used to skip the poison and the screen with it: the plan below left
// admmlib's history bit-identical to the fault-free run, with no quarantine
// event, although Validate accepts it. 4×2, not 2×2: with the plain mean a
// four-rank world's poisoned aggregate drags every baseline at once (the
// non-robust mean's known weakness, see the test above).
func TestByzantineReachesDenseRing(t *testing.T) {
	train, _ := testData(t, 160)
	run := func(faults *transport.FaultPlan) *Result {
		cfg := baseConfig(ADMMLib, 4, 2)
		cfg.MaxIter = 30
		cfg.Screen = watchdog.ScreenConfig{Enabled: true}
		cfg.Faults = faults
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const attacker, from, until = 2, 5, 12
	clean := goldenFromResult(run(nil))
	res := run(&transport.FaultPlan{
		Seed: 3,
		ByzantineAtIteration: map[int]transport.ByzantineFault{
			attacker: {Iteration: from, Mode: transport.ByzantineScale, Until: until},
		},
	})
	poisoned := goldenFromResult(res)
	for i := 0; i < from; i++ {
		if poisoned.History[i] != clean.History[i] {
			t.Fatalf("iter %d differs before the attack starts", i)
		}
	}
	// Under SSP the attacker's node may sit out the round its poisoned batch
	// launched in, so the history moves at the attack's start or a bounded
	// number of rounds later — but while the window is open.
	first := from
	for first < len(clean.History) && poisoned.History[first] == clean.History[first] {
		first++
	}
	if first >= until {
		t.Fatalf("history is bit-identical to the fault-free run through iteration %d: the poison never reached the ring", first-1)
	}
	if len(res.Quarantines) == 0 || res.Quarantines[0].Rank != attacker || res.Quarantines[0].Readmitted {
		t.Fatalf("first quarantine event should indict rank %d, got %+v", attacker, res.Quarantines)
	}
	readmitted := false
	for _, ev := range res.Quarantines {
		if ev.Rank == attacker && ev.Readmitted {
			if ev.Iter < until {
				t.Fatalf("rank %d readmitted at %d, inside the attack window [%d, %d)", attacker, ev.Iter, from, until)
			}
			readmitted = true
		}
	}
	if !readmitted {
		t.Fatalf("rank %d was never readmitted after the window closed (events %+v)", attacker, res.Quarantines)
	}
}

// TestByzantineQuorumLostAborts: with TrimF = 1 a second quarantined rank
// exceeds what the trim can out-vote; the run must abort with an error
// wrapping watchdog.ErrQuorumLost rather than keep aggregating.
func TestByzantineQuorumLostAborts(t *testing.T) {
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAADMMRobust, 3, 2)
	cfg.MaxIter = 40
	cfg.Screen = watchdog.ScreenConfig{Enabled: true}
	cfg.Faults = &transport.FaultPlan{
		Seed: 5,
		// Mid-run: the sign-flip's Δ-norm signature needs partially-decayed
		// baselines — early-training steps are themselves large, so an
		// attack in the first few iterations hides inside the honest Δ.
		ByzantineAtIteration: map[int]transport.ByzantineFault{
			1: {Iteration: 8, Mode: transport.ByzantineSignFlip},
			4: {Iteration: 8, Mode: transport.ByzantineScale},
		},
	}
	_, err := Run(cfg, train, RunOptions{})
	if !errors.Is(err, watchdog.ErrQuorumLost) {
		t.Fatalf("err = %v, want wrapping watchdog.ErrQuorumLost", err)
	}
}

// TestTrimFValidatedAgainstCombineFanIn: 2·TrimF must stay below the
// number of contributions that meet at the run's combine point — node
// partials under tree consensus, workers under flat and star. Checking
// the tree against the worker count let TrimF 3 through on 4×4, where
// the combine then silently clamped it to 1.
func TestTrimFValidatedAgainstCombineFanIn(t *testing.T) {
	trimmed, median := collective.AggTrimmedMeanName, collective.AggMedianName
	for _, tc := range []struct {
		alg        Algorithm // names the consensus
		agg        string    // "" keeps the variant's aggregator
		nodes, wpn int
		trimF      int
		ok         bool
	}{
		{PSRAHGADMMRobust, "", 4, 4, 1, true}, // tree: 4 node partials
		{PSRAHGADMMRobust, "", 4, 4, 2, false},
		{PSRAHGADMMRobust, "", 4, 4, 3, false},
		{PSRAHGADMMRobust, "", 8, 2, 3, true},
		{PSRAHGADMMRobust, "", 2, 8, 0, false}, // default TrimF 1 over 2 partials
		{PSRAHGADMM, trimmed, 3, 1, 0, true},
		{PSRAADMMRobust, "", 4, 4, 3, true}, // flat: 16 workers
		{PSRAADMMRobust, "", 4, 4, 7, true},
		{PSRAADMMRobust, "", 4, 4, 8, false},
		{PSRAADMMRobust, "", 2, 2, 0, true},
		{GCADMM, trimmed, 2, 2, 1, true}, // star: 4 workers
		{GCADMM, trimmed, 2, 2, 2, false},
		{GCADMMMedian, "", 2, 1, 9, true}, // only the trimmed mean reads TrimF
		{PSRAHGADMM, median, 2, 2, 9, true},
		{PSRAHGADMM, "", 2, 2, 9, true},
	} {
		cfg := baseConfig(tc.alg, tc.nodes, tc.wpn)
		cfg.Aggregator = tc.agg
		cfg.TrimF = tc.trimF
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s agg=%q %d×%d TrimF=%d: Validate() = %v, want ok=%v",
				tc.alg, tc.agg, tc.nodes, tc.wpn, tc.trimF, err, tc.ok)
		}
	}
}
