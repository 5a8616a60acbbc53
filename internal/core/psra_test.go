package core

import (
	"math"
	"testing"

	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/vec"
)

func TestGroupConsensusMakesProgress(t *testing.T) {
	train, test := testData(t, 160)
	cfg := baseConfig(PSRAHGADMMGroup, 8, 1)
	cfg.GroupThreshold = 2
	cfg.MaxIter = 40
	cfg.Jitter = simnet.Jitter{Seed: 4, Amp: 0.5} // rotates group membership
	res, err := Run(cfg, train, RunOptions{Test: test})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective() >= res.History[0].Objective {
		t.Fatal("group-local consensus made no progress")
	}
	if res.FinalAccuracy() < 0.6 {
		t.Fatalf("accuracy %v", res.FinalAccuracy())
	}
}

func TestGroupConsensusIsolatesStragglerDelay(t *testing.T) {
	// A fixed additive straggler delay must hurt the ungrouped run (every
	// iteration gated by the slowest node) far more than the grouped run
	// (only the straggler's own group stalls). This is the Figure 7
	// mechanism in unit-test form.
	train, _ := testData(t, 240)
	run := func(threshold int) float64 {
		cfg := baseConfig(PSRAHGADMMGroup, 16, 1)
		cfg.GroupThreshold = threshold
		cfg.MaxIter = 20
		cfg.EvalEvery = 20
		cfg.Stragglers = simnet.Stragglers{Seed: 12, Prob: 0.06, Delay: 5e-3}
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCommTime
	}
	grouped := run(4)
	ungrouped := run(16)
	if grouped*1.5 > ungrouped {
		t.Fatalf("grouping isolated too little: grouped %v vs ungrouped %v", grouped, ungrouped)
	}
}

func TestGroupConsensusEqualsGlobalWhenSingleGroup(t *testing.T) {
	// With threshold = all nodes the group reading degenerates to one
	// global group — the trajectories of the two readings must agree.
	train, _ := testData(t, 120)
	run := func(alg Algorithm) []IterStat {
		cfg := baseConfig(alg, 4, 2)
		cfg.GroupThreshold = 4
		cfg.MaxIter = 12
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.History
	}
	global := run(PSRAHGADMM)
	group := run(PSRAHGADMMGroup)
	for i := range global {
		g, p := global[i].Objective, group[i].Objective
		if math.Abs(g-p) > 1e-6*(1+math.Abs(g)) {
			t.Fatalf("iter %d: global %v vs single-group %v", i, g, p)
		}
	}
}

func TestTreeDepthGrowsWithSmallerThreshold(t *testing.T) {
	// Smaller fan-in → deeper staged aggregation tree → more GG round
	// trips and inter-level traffic. Verify through byte accounting.
	train, _ := testData(t, 160)
	bytesFor := func(threshold int) int64 {
		cfg := baseConfig(PSRAHGADMM, 8, 1)
		cfg.GroupThreshold = threshold
		cfg.MaxIter = 5
		cfg.EvalEvery = 5
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalBytes
	}
	deep := bytesFor(2)    // binary tree: 3 levels
	shallow := bytesFor(8) // single global group
	if deep <= shallow {
		t.Fatalf("deep tree bytes %d not above flat %d", deep, shallow)
	}
}

func TestActiveSubspaceMatchesFullSolve(t *testing.T) {
	// The active-subspace restriction must be exact: with tight subproblem
	// tolerances, a single worker holding all data follows the same
	// objective trajectory as the plain full-dimension N=1 consensus ADMM
	// recursion implemented directly with the solver package.
	train, _ := testData(t, 100)
	cfg := baseConfig(GCADMM, 1, 1)
	cfg.MaxIter = 15
	cfg.Tron = solver.TronOptions{GradTol: 1e-9, MaxIter: 200, MaxCG: 200, CGTol: 1e-4}
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dim := train.Dim()
	x := make([]float64, dim)
	y := make([]float64, dim)
	z := make([]float64, dim)
	w := make([]float64, dim)
	obj := solver.NewLogisticProx(train.X, train.Labels, cfg.Rho, y, z)
	for k := 0; k < cfg.MaxIter; k++ {
		solver.TRON(obj, x, cfg.Tron)
		solver.WLocal(w, y, x, cfg.Rho)
		solver.ZUpdateL1(z, w, cfg.Lambda, cfg.Rho, 1)
		solver.DualUpdate(y, x, z, cfg.Rho)
		want := obj.LocalLoss(z) + cfg.Lambda*vec.Nrm1(z)
		got := res.History[k].Objective
		if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("iter %d: engine %v vs full-dim reference %v", k, got, want)
		}
	}
}

var _ = vec.Clone
