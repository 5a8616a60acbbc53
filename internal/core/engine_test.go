package core

import (
	"math"
	"strings"
	"testing"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
)

// testData builds a small, learnable synthetic problem shared by the
// engine tests.
func testData(t testing.TB, rows int) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Generate(dataset.SynthConfig{
		Name: "eng", Dim: 200, TrainRows: rows, TestRows: 60, RowNNZ: 10,
		ZipfS: 1.3, SignalNNZ: 30, NoiseFlip: 0.02, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func baseConfig(alg Algorithm, nodes, wpn int) Config {
	return Config{
		Algorithm: alg,
		Topo:      simnet.Topology{Nodes: nodes, WorkersPerNode: wpn},
		Rho:       1.0,
		Lambda:    0.5,
		MaxIter:   30,
	}
}

func TestAllAlgorithmsReduceObjective(t *testing.T) {
	train, test := testData(t, 160)
	for _, alg := range Algorithms() {
		t.Run(string(alg), func(t *testing.T) {
			cfg := baseConfig(alg, 4, 2)
			res, err := Run(cfg, train, RunOptions{Test: test})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.History) != cfg.MaxIter {
				t.Fatalf("history length %d", len(res.History))
			}
			first := res.History[0].Objective
			last := res.FinalObjective()
			if isNaN(first) || isNaN(last) {
				t.Fatal("objective not evaluated")
			}
			if last >= first {
				t.Fatalf("objective did not decrease: %v → %v", first, last)
			}
			acc := res.FinalAccuracy()
			if isNaN(acc) || acc < 0.6 {
				t.Fatalf("final accuracy %v too low", acc)
			}
			if res.SystemTime <= 0 || res.TotalBytes <= 0 {
				t.Fatalf("timing/bytes not accounted: %+v", res.SystemTime)
			}
		})
	}
}

func TestExactAlgorithmsAgree(t *testing.T) {
	// GC-ADMM, flat PSRA-ADMM, and PSRA-HGADMM with a single global group
	// compute the same exact consensus recursion; their objectives must
	// agree to float tolerance at every iteration.
	train, _ := testData(t, 120)
	run := func(alg Algorithm, threshold int) []IterStat {
		cfg := baseConfig(alg, 4, 2)
		cfg.MaxIter = 12
		cfg.GroupThreshold = threshold
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.History
	}
	gc := run(GCADMM, 0)
	flat := run(PSRAADMM, 0)
	hier := run(PSRAHGADMM, 4) // all nodes in one group
	gr := run(GRADMM, 0)
	for i := range gc {
		if d := math.Abs(gc[i].Objective - flat[i].Objective); d > 1e-8*(1+math.Abs(gc[i].Objective)) {
			t.Fatalf("iter %d: GC %v vs flat PSRA %v", i, gc[i].Objective, flat[i].Objective)
		}
		if d := math.Abs(gc[i].Objective - hier[i].Objective); d > 1e-6*(1+math.Abs(gc[i].Objective)) {
			t.Fatalf("iter %d: GC %v vs hierarchical %v", i, gc[i].Objective, hier[i].Objective)
		}
		if d := math.Abs(gc[i].Objective - gr[i].Objective); d > 1e-6*(1+math.Abs(gc[i].Objective)) {
			t.Fatalf("iter %d: GC %v vs GR-ADMM %v", i, gc[i].Objective, gr[i].Objective)
		}
	}
}

func TestDeterministicHistories(t *testing.T) {
	train, test := testData(t, 120)
	for _, alg := range []Algorithm{PSRAHGADMM, ADMMLib, ADADMM} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := baseConfig(alg, 4, 2)
			cfg.MaxIter = 10
			cfg.GroupThreshold = 2
			cfg.Stragglers = simnet.Default(5)
			a, err := Run(cfg, train, RunOptions{Test: test})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg, train, RunOptions{Test: test})
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.History {
				if !iterStatEqual(a.History[i], b.History[i]) {
					t.Fatalf("iter %d differs:\n%+v\n%+v", i, a.History[i], b.History[i])
				}
			}
			if !vec.Equal(a.Z, b.Z) {
				t.Fatal("final iterates differ")
			}
		})
	}
}

func TestConvergesToReferenceOptimum(t *testing.T) {
	train, _ := testData(t, 120)
	fstar, zstar, err := ReferenceOptimum(train, 1.0, 0.5, 150)
	if err != nil {
		t.Fatal(err)
	}
	if fstar <= 0 || len(zstar) != train.Dim() {
		t.Fatalf("reference optimum: f*=%v", fstar)
	}
	cfg := baseConfig(PSRAHGADMM, 4, 2)
	cfg.MaxIter = 80
	res, err := Run(cfg, train, RunOptions{FStar: fstar, HaveFStar: true})
	if err != nil {
		t.Fatal(err)
	}
	relFirst := res.History[0].RelError
	relLast := res.History[len(res.History)-1].RelError
	if isNaN(relFirst) || isNaN(relLast) {
		t.Fatal("relative error not reported")
	}
	if relLast > 0.05 {
		t.Fatalf("did not approach optimum: rel err %v", relLast)
	}
	if relLast >= relFirst {
		t.Fatalf("relative error did not shrink: %v → %v", relFirst, relLast)
	}
}

func TestGroupingPreservesConsensusChangesClock(t *testing.T) {
	// The staged aggregation tree must keep consensus exact — grouped and
	// ungrouped runs follow the same optimization trajectory (up to float
	// association) — while changing the virtual timeline and adding GG
	// traffic.
	train, _ := testData(t, 160)
	run := func(threshold int) *Result {
		cfg := baseConfig(PSRAHGADMM, 4, 2)
		cfg.MaxIter = 10
		cfg.GroupThreshold = threshold
		cfg.Jitter = simnet.Jitter{Seed: 3, Amp: 0.5}
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	grouped := run(2)
	full := run(4)
	for i := range grouped.History {
		g, f := grouped.History[i].Objective, full.History[i].Objective
		if math.Abs(g-f) > 1e-6*(1+math.Abs(f)) {
			t.Fatalf("iter %d: grouped objective %v deviates from ungrouped %v", i, g, f)
		}
	}
	if grouped.TotalCommTime == full.TotalCommTime {
		t.Fatal("grouping did not change the virtual timeline")
	}
	if grouped.TotalBytes <= full.TotalBytes {
		// The tree adds GG round trips and inter-level broadcasts.
		t.Fatalf("grouped bytes %d not above ungrouped %d", grouped.TotalBytes, full.TotalBytes)
	}
}

func TestStragglersSlowUngroupedMoreThanGrouped(t *testing.T) {
	// The Figure 7 mechanism: with slow nodes injected, the ungrouped run
	// (every iteration waits for the slowest node) must spend more
	// wait+transfer time than the grouped run at the same cluster size.
	train, _ := testData(t, 240)
	mk := func(threshold int) float64 {
		cfg := baseConfig(PSRAHGADMM, 8, 1)
		cfg.MaxIter = 15
		cfg.GroupThreshold = threshold
		cfg.Stragglers = simnet.Default(11)
		cfg.EvalEvery = cfg.MaxIter
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCommTime
	}
	grouped := mk(4)   // half the nodes per group
	ungrouped := mk(8) // one global group
	if grouped >= ungrouped {
		t.Fatalf("grouped comm %v not below ungrouped %v under stragglers", grouped, ungrouped)
	}
}

func TestSSPStalenessBounded(t *testing.T) {
	// With MaxDelay=1 every participant must be fresh at least every
	// other round, so the objective still decreases.
	train, _ := testData(t, 160)
	cfg := baseConfig(ADMMLib, 4, 2)
	cfg.MaxDelay = 1
	cfg.MaxIter = 20
	cfg.Stragglers = simnet.Default(3)
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective() >= res.History[0].Objective {
		t.Fatal("SSP with tight delay bound failed to make progress")
	}
}

func TestConfigValidation(t *testing.T) {
	train, _ := testData(t, 60)
	bad := []Config{
		{Algorithm: "nope", Topo: simnet.Topology{Nodes: 1, WorkersPerNode: 1}, Rho: 1, MaxIter: 1},
		{Algorithm: GCADMM, Topo: simnet.Topology{Nodes: 0, WorkersPerNode: 1}, Rho: 1, MaxIter: 1},
		{Algorithm: GCADMM, Topo: simnet.Topology{Nodes: 1, WorkersPerNode: 1}, Rho: 0, MaxIter: 1},
		{Algorithm: GCADMM, Topo: simnet.Topology{Nodes: 1, WorkersPerNode: 1}, Rho: 1, Lambda: -1, MaxIter: 1},
		{Algorithm: GCADMM, Topo: simnet.Topology{Nodes: 1, WorkersPerNode: 1}, Rho: 1, MaxIter: 0},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, train, RunOptions{}); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// More workers than rows must be rejected.
	cfg := baseConfig(GCADMM, 100, 1)
	if _, err := Run(cfg, train, RunOptions{}); err == nil {
		t.Fatal("overSharded config accepted")
	}
	// A non-finite TRON tolerance is refused by name: ≤ 0 means "default",
	// but a NaN GradTol ran every solve to MaxIter and +Inf stopped it at
	// its start.
	for _, tc := range []struct {
		name string
		set  func(*solver.TronOptions)
	}{
		{"GradTol", func(o *solver.TronOptions) { o.GradTol = math.NaN() }},
		{"GradTol", func(o *solver.TronOptions) { o.GradTol = math.Inf(1) }},
		{"GradTol", func(o *solver.TronOptions) { o.GradTol = math.Inf(-1) }},
		{"CGTol", func(o *solver.TronOptions) { o.CGTol = math.NaN() }},
		{"CGTol", func(o *solver.TronOptions) { o.CGTol = math.Inf(1) }},
		{"CGTol", func(o *solver.TronOptions) { o.CGTol = math.Inf(-1) }},
	} {
		cfg := baseConfig(GCADMM, 2, 2)
		tc.set(&cfg.Tron)
		_, err := Run(cfg, train, RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "Tron."+tc.name) {
			t.Errorf("Tron.%s = %v/%v: err %v, want one naming the field", tc.name, cfg.Tron.GradTol, cfg.Tron.CGTol, err)
		}
	}
}

// TestNonFiniteKnobsRefused: ρ must be positive and finite and λ
// non-negative and finite. A NaN passes a plain ρ <= 0 or λ < 0 test, and
// so does a NaN corruption probability against [0, 1]. A rank-keyed fault
// schedule naming a rank outside the world, or an iteration before the
// first, is refused too: it used to panic mid-run or inject nothing. So is
// a cost-model, straggler or jitter value the virtual clock cannot use: a
// NaN ComputePerUnit ran to completion with every time 0, and an infinite
// Slowdown gave a NaN system time, both with a nil error. The values the
// library and its harness use stay valid.
func TestNonFiniteKnobsRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cost := func(set func(*simnet.CostModel)) func(*Config) {
		return func(c *Config) { c.Cost = simnet.Tianhe2Like(); set(&c.Cost) }
	}
	stragglers := func(s simnet.Stragglers) func(*Config) { return func(c *Config) { c.Stragglers = s } }
	jitter := func(amp float64) func(*Config) {
		return func(c *Config) { c.Jitter = simnet.Jitter{Seed: 1, Amp: amp} }
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"rho NaN", func(c *Config) { c.Rho = nan }, "Rho must be positive and finite"},
		{"rho +Inf", func(c *Config) { c.Rho = inf }, "Rho must be positive and finite"},
		{"rho -Inf", func(c *Config) { c.Rho = -inf }, "Rho must be positive and finite"},
		{"rho 0", func(c *Config) { c.Rho = 0 }, "Rho must be positive and finite"},
		{"lambda NaN", func(c *Config) { c.Lambda = nan }, "Lambda must be non-negative and finite"},
		{"lambda +Inf", func(c *Config) { c.Lambda = inf }, "Lambda must be non-negative and finite"},
		{"lambda -1", func(c *Config) { c.Lambda = -1 }, "Lambda must be non-negative and finite"},
		{"tol NaN", func(c *Config) { c.Tol = nan }, "Tol must be non-negative"},
		{"corrupt NaN", func(c *Config) { c.Faults = &transport.FaultPlan{CorruptProb: nan} }, "CorruptProb must be in [0,1]"},
		{"kill rank 4", faults(transport.FaultPlan{KillAtIteration: map[int]int{4: 1}}), "Faults.KillAtIteration rank 4 outside the world [0,4)"},
		{"kill rank -1", faults(transport.FaultPlan{KillAtIteration: map[int]int{-1: 1}}), "Faults.KillAtIteration rank -1 outside"},
		{"kill iteration -4", faults(transport.FaultPlan{KillAtIteration: map[int]int{1: -4}}), "Faults.KillAtIteration rank 1 iteration -4 negative"},
		{"rejoin rank 9", faults(transport.FaultPlan{RejoinAtIteration: map[int]int{9: 5}}), "Faults.RejoinAtIteration rank 9 outside"},
		{"rejoin iteration -1", faults(transport.FaultPlan{RejoinAtIteration: map[int]int{1: -1}}), "Faults.RejoinAtIteration rank 1 iteration -1 negative"},
		{"corrupt rank 9", faults(transport.FaultPlan{CorruptAtIteration: map[int]int{9: 1}}), "Faults.CorruptAtIteration rank 9 outside"},
		{"corrupt iteration -2", faults(transport.FaultPlan{CorruptAtIteration: map[int]int{0: -2}}), "Faults.CorruptAtIteration rank 0 iteration -2 negative"},
		{"nan rank 9", faults(transport.FaultPlan{NaNAtIteration: map[int]int{9: 1}}), "Faults.NaNAtIteration rank 9 outside"},
		{"nan rank -1", faults(transport.FaultPlan{NaNAtIteration: map[int]int{-1: 1}}), "Faults.NaNAtIteration rank -1 outside"},
		{"nan iteration -3", faults(transport.FaultPlan{NaNAtIteration: map[int]int{1: -3}}), "Faults.NaNAtIteration rank 1 iteration -3 negative"},
		{"send-kill rank 4", faults(transport.FaultPlan{KillAfterSends: map[int]int{4: 7}}), "Faults.KillAfterSends rank 4 outside"},
		{"compute NaN", cost(func(m *simnet.CostModel) { m.ComputePerUnit = nan }), "Cost.ComputePerUnit must be non-negative and finite"},
		{"compute +Inf", cost(func(m *simnet.CostModel) { m.ComputePerUnit = inf }), "Cost.ComputePerUnit must be non-negative and finite"},
		{"compute negative", cost(func(m *simnet.CostModel) { m.ComputePerUnit = -1e-9 }), "Cost.ComputePerUnit must be non-negative and finite"},
		{"intra alpha NaN", cost(func(m *simnet.CostModel) { m.IntraAlpha = nan }), "Cost.IntraAlpha"},
		{"intra beta -Inf", cost(func(m *simnet.CostModel) { m.IntraBeta = -inf }), "Cost.IntraBeta"},
		{"inter alpha negative", cost(func(m *simnet.CostModel) { m.InterAlpha = -5e-6 }), "Cost.InterAlpha"},
		{"inter beta +Inf", cost(func(m *simnet.CostModel) { m.InterBeta = inf }), "Cost.InterBeta"},
		{"straggler prob NaN", stragglers(simnet.Stragglers{Prob: nan, Slowdown: 4}), "Stragglers.Prob must be in [0,1]"},
		{"straggler prob -0.1", stragglers(simnet.Stragglers{Prob: -0.1, Slowdown: 4}), "Stragglers.Prob must be in [0,1]"},
		{"straggler prob 1.5", stragglers(simnet.Stragglers{Prob: 1.5, Slowdown: 4}), "Stragglers.Prob must be in [0,1]"},
		{"slowdown +Inf", stragglers(simnet.Stragglers{Prob: 0.25, Slowdown: inf}), "Stragglers.Slowdown must be non-negative and finite"},
		{"slowdown NaN", stragglers(simnet.Stragglers{Prob: 0.25, Slowdown: nan}), "Stragglers.Slowdown"},
		{"slowdown negative", stragglers(simnet.Stragglers{Prob: 0.25, Slowdown: -4}), "Stragglers.Slowdown"},
		{"delay NaN", stragglers(simnet.Stragglers{Prob: 0.05, Delay: nan}), "Stragglers.Delay must be non-negative and finite"},
		{"delay +Inf", stragglers(simnet.Stragglers{Prob: 0.05, Delay: inf}), "Stragglers.Delay"},
		{"delay negative", stragglers(simnet.Stragglers{Prob: 0.05, Delay: -1}), "Stragglers.Delay"},
		{"jitter NaN", jitter(nan), "Jitter.Amp must be non-negative and finite"},
		{"jitter +Inf", jitter(inf), "Jitter.Amp"},
		{"jitter negative", jitter(-0.5), "Jitter.Amp"},
	} {
		cfg := baseConfig(GCADMM, 2, 2)
		tc.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"λ = 0", func(c *Config) { c.Lambda = 0 }},
		{"zero cost, stragglers and jitter", func(*Config) {}},
		{"Tianhe2Like", cost(func(*simnet.CostModel) {})},
		{"the harness's scaling", func(c *Config) { c.Cost = simnet.Tianhe2Like().ScaleBandwidth(3).ScaleCompute(10) }},
		{"Default stragglers", stragglers(simnet.Default(7))},
		{"Fig. 7 stragglers", stragglers(simnet.Stragglers{Seed: 1, Prob: 0.05, Delay: 8e-3})},
		{"the harness's jitter", jitter(0.6)},
	} {
		cfg := baseConfig(GCADMM, 2, 2)
		tc.set(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// faults sets an elastic run's fault plan, so a rejoin schedule is checked
// for its ranks and iterations rather than refused for the failure model.
func faults(p transport.FaultPlan) func(*Config) {
	return func(c *Config) { c.Elastic, c.Faults = true, &p }
}

func TestEvalEverySkipsEvaluations(t *testing.T) {
	train, _ := testData(t, 80)
	cfg := baseConfig(GCADMM, 2, 1)
	cfg.MaxIter = 10
	cfg.EvalEvery = 5
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evaluated := 0
	for _, h := range res.History {
		if !isNaN(h.Objective) {
			evaluated++
		}
	}
	if evaluated != 3 { // iters 0, 5, 9 (last always evaluated)
		t.Fatalf("evaluated %d times, want 3", evaluated)
	}
}

func TestOnIterationCallback(t *testing.T) {
	train, _ := testData(t, 80)
	cfg := baseConfig(GCADMM, 2, 1)
	cfg.MaxIter = 5
	var seen []int
	_, err := Run(cfg, train, RunOptions{OnIteration: func(s IterStat) {
		seen = append(seen, s.Iter)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 || seen[0] != 0 || seen[4] != 4 {
		t.Fatalf("callback iterations %v", seen)
	}
}

// iterStatEqual compares two IterStats bitwise, treating NaN == NaN (NaN
// marks "not evaluated", which must also reproduce).
func iterStatEqual(a, b IterStat) bool {
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return a.Iter == b.Iter && a.Bytes == b.Bytes &&
		feq(a.Objective, b.Objective) && feq(a.RelError, b.RelError) &&
		feq(a.Accuracy, b.Accuracy) && feq(a.CalTime, b.CalTime) &&
		feq(a.CommTime, b.CommTime)
}

func TestSparseExchangeBeatsDenseBaselines(t *testing.T) {
	// On a high-dimensional sparse problem, PSRA-HGADMM's sparse exchange
	// must move fewer bytes than ADMMLib's dense fp32 ring, which in turn
	// moves fewer than AD-ADMM's full-precision (x,y) star — the §5.4
	// communication-cost ordering.
	train, _, err := dataset.Generate(dataset.SynthConfig{
		Name: "hd", Dim: 8000, TrainRows: 240, TestRows: 8, RowNNZ: 10,
		ZipfS: 1.3, SignalNNZ: 80, NoiseFlip: 0.02, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(alg Algorithm) int64 {
		cfg := baseConfig(alg, 4, 2)
		cfg.MaxIter = 5
		cfg.EvalEvery = 5
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalBytes
	}
	psra := run(PSRAHGADMM)
	admmlib := run(ADMMLib)
	adadmm := run(ADADMM)
	if !(psra < admmlib && admmlib < adadmm) {
		t.Fatalf("byte ordering violated: psra=%d admmlib=%d adadmm=%d", psra, admmlib, adadmm)
	}
}
