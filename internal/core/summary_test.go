package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
)

// The engine's per-iteration summary — z̄, the residuals, z_prev — costs
// the iterate's nonzeros: z̄ is assembled over the live views' supports and
// scaled there, the dual residual runs over the union of z̄'s and z_prev's
// supports, the two buffers swap instead of copying, and the per-block live
// counts are recounted once per membership epoch. These tests hold all of it
// to the dense bodies it replaced, bit for bit.

// assembleRef is stateStore.assembleInto as it stood while z̄ cost the
// dimension, verbatim: cleared at full width, every block scaled at full
// width by a fresh count of its live subscribers.
func assembleRef(s *stateStore, out []float64, alive func(rank int) bool) {
	clear(out)
	for r, w := range s.env.ws {
		if alive(r) {
			w.zSparse.AddIntoDense(out, 1)
		}
	}
	for b := 0; b < s.smap.Part.Blocks; b++ {
		if n := s.smap.LiveSubscribers(b, alive); n > 0 {
			vec.Scale(1/float64(n), out[s.offs[b]:s.offs[b+1]])
		}
	}
}

// residualsRef is residuals as it stood while the dual residual cost the
// dimension, verbatim.
func residualsRef(ws []*worker, z, zPrev []float64, rho float64) (primal, dual float64) {
	var rsq float64
	for _, w := range ws {
		for i, c := range w.active {
			d := w.xA[i] - z[c]
			rsq += d * d
		}
	}
	primal = math.Sqrt(rsq)
	dual = rho * math.Sqrt(float64(len(ws))) * math.Sqrt(vec.DistSq(z, zPrev))
	return primal, dual
}

// denseSummary replays the engine's summary the dense way beside a run —
// z̄ by assembleRef, the residuals by residualsRef, z_prev by copy — and
// holds the run's stats and final Z to it bit for bit. z_prev at iteration
// k is z̄ of the latest pass through iteration k−1, which is also what a
// rollback restores; a resumed run seeds it from the snapshot.
type denseSummary struct {
	t      *testing.T
	lambda float64
	zbar   map[int][]float64 // per iteration, latest pass
	stat   IterStat
	env    *strategyEnv
	rounds int
}

func newDenseSummary(t *testing.T, cfg Config) *denseSummary {
	return &denseSummary{t: t, lambda: cfg.Lambda, zbar: map[int][]float64{}}
}

// seed sets z̄ of iteration iter−1 from the snapshot in store, for a run
// that resumes at iter.
func (d *denseSummary) seed(store checkpoint.Store) {
	blob, ok, err := store.Load()
	if err != nil || !ok {
		d.t.Fatalf("no snapshot to resume from: %v", err)
	}
	snap, err := exchange.DecodeSnapshot(blob)
	if err != nil {
		d.t.Fatal(err)
	}
	d.zbar[int(snap.Iter)-1] = slices.Clone(snap.ZPrev)
}

func (d *denseSummary) options(o RunOptions) RunOptions {
	o.OnIteration = func(s IterStat) { d.stat = s }
	o.afterRound = d.check
	return o
}

func (d *denseSummary) check(iter int, env *strategyEnv) {
	d.t.Helper()
	d.env, d.rounds = env, d.rounds+1
	zbar := make([]float64, env.dim)
	assembleRef(env.store, zbar, env.members.Alive)
	zPrev, ok := d.zbar[iter-1]
	if !ok {
		zPrev = make([]float64, env.dim)
	}
	live := env.liveWorkers()
	p, du := residualsRef(live, zbar, zPrev, d.stat.Rho)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(p, d.stat.PrimalRes) || !same(du, d.stat.DualRes) {
		d.t.Fatalf("iter %d: residuals (%v, %v), dense reference (%v, %v)", iter, d.stat.PrimalRes, d.stat.DualRes, p, du)
	}
	if !math.IsNaN(d.stat.Objective) && !same(d.stat.Objective, globalObjective(Config{Lambda: d.lambda}, live, zbar)) {
		d.t.Fatalf("iter %d: objective %v differs from the dense z̄'s", iter, d.stat.Objective)
	}
	d.zbar[iter] = zbar
}

// final holds the run's Z to the dense assembly, under the same fallback:
// with nobody alive, everyone's views.
func (d *denseSummary) final(res *Result) {
	d.t.Helper()
	if d.rounds == 0 {
		d.t.Fatal("no round was checked")
	}
	alive := d.env.members.Alive
	if d.env.members.LiveCount() == 0 {
		alive = func(int) bool { return true }
	}
	z := make([]float64, d.env.dim)
	assembleRef(d.env.store, z, alive)
	if !bitsEqual(z, res.Z) {
		d.t.Fatal("Result.Z differs from the dense assembly")
	}
}

// TestSparseSummaryMatchesDense drives replicated and sharded placement
// under BSP, SSP and async through kills and rejoins, a quarantine and its
// re-admission, a watchdog rollback, a checkpoint resume and the death of
// every rank, checking every iteration's residuals and objective and the
// final Z against the dense reference.
func TestSparseSummaryMatchesDense(t *testing.T) {
	train, test := testData(t, 160)
	chaos := func(alg Algorithm, sharded bool) func() Config {
		return func() Config {
			cfg := baseConfig(alg, 3, 2)
			cfg.MaxIter = 24
			cfg.EvalEvery = 3
			cfg.ShardedState = sharded
			cfg.ShardBlocks = 40
			cfg.GroupThreshold = 2
			cfg.Stragglers = simnet.Stragglers{Seed: 2, Prob: 0.4, Slowdown: 6}
			cfg.Elastic = true
			cfg.Faults = &transport.FaultPlan{
				Seed:              5,
				KillAtIteration:   map[int]int{3: 5, 4: 9},
				RejoinAtIteration: map[int]int{3: 12, 4: 16},
			}
			return cfg
		}
	}
	quarantined := func(alg Algorithm) func() Config {
		return func() Config {
			cfg := baseConfig(alg, 2, 2)
			cfg.EvalEvery = 4
			cfg.ShardBlocks = 40
			cfg.Screen = watchdog.ScreenConfig{Enabled: true}
			cfg.Faults = &transport.FaultPlan{
				Seed: 3,
				ByzantineAtIteration: map[int]transport.ByzantineFault{
					2: {Iteration: 5, Mode: transport.ByzantineScale, Until: 12},
				},
			}
			return cfg
		}
	}
	rolledBack := func(alg Algorithm) func() Config {
		return func() Config {
			cfg := baseConfig(alg, 3, 2)
			cfg.MaxIter = 20
			cfg.ShardBlocks = 40
			cfg.Watchdog = watchdog.Config{Enabled: true}
			cfg.Faults = &transport.FaultPlan{Seed: 3, NaNAtIteration: map[int]int{1: 12}}
			return cfg
		}
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
		// what must have happened, or the case checked less than its name says
		rollback, quarantine bool
	}{
		{name: "replicated/bsp/tree", cfg: chaos(PSRAHGADMM, false)},
		{name: "replicated/bsp/flat", cfg: chaos(PSRAADMM, false)},
		{name: "replicated/ssp/star", cfg: chaos(ADADMM, false)},
		{name: "replicated/ssp/ring", cfg: chaos(GRADMMSSP, false)},
		{name: "replicated/async/flat", cfg: chaos(PSRAADMMAsync, false)},
		{name: "sharded/bsp/tree", cfg: chaos(PSRAHGADMMSharded, true)},
		{name: "sharded/bsp/flat", cfg: chaos(PSRAADMM, true)},
		{name: "sharded/ssp/tree", cfg: chaos(PSRAHGADMMShardedSSP, true)},
		{name: "sharded/async/tree", cfg: chaos(PSRAHGADMMShardedAsync, true)},
		{name: "replicated/quarantine", cfg: quarantined(PSRAADMMRobust), quarantine: true},
		{name: "sharded/quarantine", cfg: quarantined(PSRAADMMShardedRobust), quarantine: true},
		{name: "replicated/rollback", cfg: rolledBack(PSRAHGADMM), rollback: true},
		{name: "sharded/rollback", cfg: rolledBack(PSRAHGADMMSharded), rollback: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			d := newDenseSummary(t, cfg)
			opts := RunOptions{Test: test}
			if tc.rollback {
				opts.Checkpoint = &CheckpointOptions{Store: checkpoint.NewMemStore(), Every: 5}
			}
			res, err := Run(cfg, train, d.options(opts))
			if err != nil {
				t.Fatal(err)
			}
			d.final(res)
			if tc.rollback && len(res.Rollbacks) != 1 {
				t.Fatalf("rollbacks %+v, want one", res.Rollbacks)
			}
			readmitted := false
			for _, ev := range res.Quarantines {
				readmitted = readmitted || ev.Readmitted
			}
			if tc.quarantine && !readmitted {
				t.Fatalf("quarantine events %+v, want a quarantine and a re-admission", res.Quarantines)
			}
			if cfg.Faults.KillAtIteration != nil && res.History[8].LiveWorkers != cfg.Topo.Size()-1 {
				t.Fatalf("live workers %d at iteration 8, want one rank dead", res.History[8].LiveWorkers)
			}
		})
	}

	// Resume: the first resumed iteration's z_prev is the snapshot's, written
	// densely, so its support is rescanned.
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("resume/sharded=%v", sharded), func(t *testing.T) {
			mk := chaos(PSRAHGADMMShardedSSP, true)
			if !sharded {
				mk = chaos(PSRAHGADMM, false)
			}
			store := checkpoint.NewMemStore()
			cfg := mk()
			cfg.MaxIter = 11 // after both kills, before the first rejoin
			if _, err := Run(cfg, train, RunOptions{Checkpoint: &CheckpointOptions{Store: store, Every: 1}}); err != nil {
				t.Fatal(err)
			}
			cfg = mk()
			d := newDenseSummary(t, cfg)
			d.seed(store)
			res, err := Run(cfg, train, d.options(RunOptions{Test: test, Checkpoint: &CheckpointOptions{Store: store, Every: 1, Resume: true}}))
			if err != nil {
				t.Fatal(err)
			}
			if res.History[0].Iter != 11 {
				t.Fatalf("resumed at iteration %d, want 11", res.History[0].Iter)
			}
			d.final(res)
		})
	}

	// Everyone dies: the partial Result's Z summarizes every rank's view,
	// with the block counts taken afresh rather than from the epoch cache.
	t.Run("all-dead", func(t *testing.T) {
		cfg := chaos(PSRAHGADMMSharded, true)()
		for r := 0; r < cfg.Topo.Size(); r++ {
			cfg.Faults.KillAtIteration[r] = 7
		}
		cfg.Faults.RejoinAtIteration = nil
		d := newDenseSummary(t, cfg)
		res, err := Run(cfg, train, d.options(RunOptions{}))
		if err == nil || res == nil || res.LiveWorkers != 0 {
			t.Fatalf("err %v, result %+v: want the run to fail with nobody alive", err, res)
		}
		d.final(res)
	})
}

// TestLiveCountsFollowMembership: the epoch-cached per-block counts equal a
// fresh count after every membership transition — and after a restore that
// brings back the cached epoch's number with a different dead set, which
// keying on the epoch alone would miss.
func TestLiveCountsFollowMembership(t *testing.T) {
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAHGADMMSharded, 2, 2)
	cfg.ShardBlocks = 100 // two columns a block: subscriptions differ by rank
	env, strat := newTestStrategy(t, cfg, train)
	s, m := env.store, env.members
	check := func(what string) []int {
		t.Helper()
		got := slices.Clone(s.liveCounts())
		if want := s.smap.LiveCounts(nil, m.Alive); !slices.Equal(got, want) {
			t.Fatalf("after %s (epoch %d): cached counts differ from a fresh count", what, m.Epoch())
		}
		return got
	}
	check("start")
	m.MarkDown(1, errScheduledKill)
	check("MarkDown(1)")
	m.MarkDown(2, errScheduledKill)
	check("MarkDown(2)")
	m.MarkUp(1)
	check("MarkUp(1)")
	m.Quarantine(3)
	check("Quarantine(3)")
	m.Unquarantine(3)
	cached := check("Unquarantine(3)") // dead: {2}

	// A snapshot stamped with the current epoch whose dead set is {0}.
	zPrev, res := make([]float64, env.dim), &Result{}
	snap := buildSnapshot(cfg, env, strat, 3, zPrev, res)
	snap.Dead = []int32{0}
	if int(snap.Epoch) != m.Epoch() {
		t.Fatalf("snapshot epoch %d, tracker %d", snap.Epoch, m.Epoch())
	}
	if slices.Equal(cached, s.smap.LiveCounts(nil, func(r int) bool { return r != 0 })) {
		t.Fatal("dead sets {0} and {2} give the same counts; the restore case checks nothing")
	}
	if _, err := applySnapshot(snap, &cfg, env, strat, zPrev, res, true); err != nil {
		t.Fatal(err)
	}
	check("Restore to the cached epoch with another dead set")
}

// TestGroupAllreduceAssemblesWhereRead: with no plan only member 0 —
// whose result lands in the caller's out — assembles the aggregate, so the
// other members' crew slots are never written; with a plan every member's
// slot receives its restricted result, which is the only copy it gets.
func TestGroupAllreduceAssemblesWhereRead(t *testing.T) {
	const p, dim = 5, 60
	env := newTestCrew(t, transport.NewChanFabricZeroCopy(p), false)
	ranks := []int{3, 0, 4, 1, 2}
	inputs := make([]*sparse.Vector, p)
	sum := make([]float64, dim)
	for i, r := range ranks {
		inputs[i] = sparse.NewVector(dim, 0)
		for j := (r * 3) % 7; j < dim; j += 2 + r {
			inputs[i].Append(int32(j), float64(r+1)) // integers: any order sums exactly
			sum[j] += float64(r + 1)
		}
	}
	sentinel := func() {
		for _, r := range ranks {
			env.crew.outs[r] = sparse.FromDense([]float64{7})
		}
	}
	for _, kind := range []commKind{commPSRSparse, commRingSparse} {
		sentinel()
		out := new(sparse.Vector)
		if _, err := groupAllreduce(env, ranks, kind, nil, inputs, out); err != nil {
			t.Fatal(err)
		}
		if !vec.Equal(out.ToDense(), sum) {
			t.Fatalf("kind %d: out is not the sum", kind)
		}
		for _, r := range ranks {
			if o := env.crew.outs[r]; o.Dim != 1 || o.NNZ() != 1 {
				t.Fatalf("kind %d: rank %d's crew slot was written without a plan", kind, r)
			}
		}
	}

	active := make([][]int32, p)
	for r := range active {
		for c := r * 8; c < r*8+20 && c < dim; c++ {
			active[r] = append(active[r], int32(c))
		}
	}
	smap := shard.NewMap(shard.NewPartition(dim, 12), active)
	plan := smap.Plan(ranks)
	sentinel()
	out := sparse.FromDense([]float64{9})
	if _, err := groupAllreduce(env, ranks, commPSRSparse, plan, inputs, out); err != nil {
		t.Fatal(err)
	}
	if out.Dim != 1 {
		t.Fatal("the shard schedule wrote the caller's out")
	}
	for i, r := range ranks {
		want := make([]float64, dim)
		for _, b := range plan.Subs[i] {
			c := smap.Part.Chunk(int(b))
			for k, in := range inputs {
				if slices.Contains(plan.Subs[k], b) {
					from, to := in.Range(c.Lo, c.Hi)
					for e := from; e < to; e++ {
						want[in.Index[e]] += in.Value[e]
					}
				}
			}
		}
		if !vec.Equal(env.crew.outs[r].ToDense(), want) {
			t.Fatalf("rank %d's crew slot is not its restricted result", r)
		}
	}
}
