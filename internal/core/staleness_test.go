package core

import (
	"testing"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
)

// newTestStrategy builds the substrate Run builds — workers, fabric,
// membership, store, pool, crew — and the strategy cfg resolves to, so a
// test can drive rounds one at a time and look at the barrier frame between
// them.
func newTestStrategy(t *testing.T, cfg Config, train *dataset.Dataset) (*strategyEnv, ConsensusStrategy) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	ax, err := cfg.axes()
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewChanFabricZeroCopy(cfg.Topo.Size())
	env := &strategyEnv{
		ws:      newWorkers(cfg, train),
		fab:     fab,
		codec:   ax.codec,
		sync:    syncModel{ax.sync, cfg.MinBarrier, cfg.MaxDelay},
		dim:     train.Dim(),
		members: membership.NewTracker(cfg.Topo.Size()),
		elastic: cfg.Elastic,
		agg:     ax.agg,
	}
	env.store = newStateStore(env, ax.sharded, cfg.ShardBlocks)
	env.pool = newComputePool()
	env.crew = newCrew(env)
	t.Cleanup(func() {
		env.crew.close()
		env.pool.close()
		fab.Close()
	})
	strat, err := newStrategy(ax.consensus, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, strat
}

// TestRejoinerServesColdStartUntilAdmitted pins the bounded-delay contract
// on membership churn: Max_delay counts rounds since a contribution was
// COMPUTED, so a participant that left the world must not feed W the vector
// it cached before leaving. From its return until its first fresh batch is
// admitted it serves what a cold start serves — nothing. The schedule makes
// the returning participant stale for several rounds under every
// granularity: a worker of the flat and star barriers, a whole node of the
// tree.
func TestRejoinerServesColdStartUntilAdmitted(t *testing.T) {
	train, _ := testData(t, 160)
	const leave, back = 9, 17
	for _, tc := range []struct {
		alg         Algorithm
		participant int   // barrier slot that leaves and returns
		ranks       []int // its world ranks
		quarantine  bool  // leave by quarantine instead of death
	}{
		{PSRAADMMAsync, 1, []int{1}, false},
		{PSRAADMMAsync, 1, []int{1}, true},
		{ADADMM, 1, []int{1}, false},
		{PSRAHGADMMShardedAsync, 1, []int{2, 3}, false},
	} {
		name := string(tc.alg)
		if tc.quarantine {
			name += "/quarantined"
		}
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(tc.alg, 3, 2)
			cfg.MaxIter = 24
			cfg.Elastic = true
			cfg.Stragglers = simnet.Stragglers{Seed: 2, Prob: 0.4, Slowdown: 6}
			cfg.fill()
			env, strat := newTestStrategy(t, cfg, train)
			var frame *barrierFrame
			switch st := strat.(type) {
			case *flatStrategy:
				frame = &st.barrierFrame
			case *starStrategy:
				frame = &st.barrierFrame
			case *treeStrategy:
				frame = &st.barrierFrame
			}
			zbar := &zSummary{z: make([]float64, env.dim)}
			staleRounds, admittedBack := 0, false
			for iter := 0; iter < cfg.MaxIter; iter++ {
				env.curIter = iter
				for _, r := range tc.ranks {
					switch {
					case iter == leave && tc.quarantine:
						env.members.Quarantine(r)
					case iter == leave:
						env.members.MarkDown(r, errScheduledKill)
					case iter == back:
						if tc.quarantine {
							env.members.Unquarantine(r)
						} else {
							env.members.MarkUp(r)
						}
						env.store.assembleInto(zbar, env.members.Alive, env.store.liveCounts())
						var maxClock float64
						for _, w := range env.liveWorkers() {
							maxClock = maxf(maxClock, w.clock)
						}
						env.ws[r].rejoin(sparse.FromDense(zbar.z), maxClock)
					}
				}
				if _, err := strat.Round(cfg, iter); err != nil {
					t.Fatal(err)
				}
				if iter < back || admittedBack {
					continue
				}
				if frame.clocks[tc.participant].pending == nil {
					admittedBack = true
					continue
				}
				// Back in the world with its first batch still in flight: what
				// the round just reduced on its behalf is the cached vector.
				staleRounds++
				if nnz := frame.wCur[tc.participant].NNZ(); nnz != 0 {
					t.Fatalf("round %d reduced a %d-entry contribution cached before the participant left at round %d", iter, nnz, leave)
				}
			}
			if staleRounds == 0 {
				t.Fatal("schedule never left the returning participant stale: the test checked nothing")
			}
			t.Logf("returning participant served its cache for %d rounds", staleRounds)
		})
	}
}
