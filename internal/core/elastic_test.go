package core

import (
	"math"
	"testing"
	"time"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
)

// TestElasticSurvivesScheduledKills is the headline chaos test: 3 of 8
// workers die mid-run — a non-leader, a Leader (forcing re-election onto
// the node's surviving rank), and finally that node's last rank (removing
// the node from the tree entirely) — and the elastic run must complete
// every iteration and converge to the SURVIVORS' optimum: the z-update's
// live-count scaling keeps degraded consensus exact, so the shrunken
// cluster solves exactly the problem posed by the surviving shards.
func TestElasticSurvivesScheduledKills(t *testing.T) {
	train, _ := testData(t, 240)
	const world = 8
	cfg := baseConfig(PSRAHGADMM, 4, 2) // node n owns ranks {2n, 2n+1}
	cfg.MaxIter = 200
	cfg.EvalEvery = 10
	cfg.AdaptiveRho = true
	cfg.Elastic = true
	cfg.Faults = &transport.FaultPlan{
		Seed: 5,
		KillAtIteration: map[int]int{
			3: 3, // non-leader of node 1
			2: 5, // Leader of node 1 → node 1 fully dead
			4: 7, // Leader of node 2 → rank 5 re-elected
		},
	}

	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	if len(res.History) != cfg.MaxIter {
		t.Fatalf("completed %d of %d iterations", len(res.History), cfg.MaxIter)
	}

	// The membership trajectory must be visible in the history: each kill
	// lands at its iteration's start, so that iteration already reports
	// the shrunken world and the bumped epoch.
	wantLive := func(iter, live, epoch int) {
		t.Helper()
		s := res.History[iter]
		if s.LiveWorkers != live || s.Epoch != epoch {
			t.Fatalf("iter %d: live=%d epoch=%d, want live=%d epoch=%d",
				iter, s.LiveWorkers, s.Epoch, live, epoch)
		}
	}
	wantLive(2, 8, 0)
	wantLive(3, 7, 1)
	wantLive(5, 6, 2)
	wantLive(7, 5, 3)
	if last := res.History[len(res.History)-1]; last.PeerDowns != 3 {
		t.Fatalf("final PeerDowns %d, want 3", last.PeerDowns)
	}
	if !res.Degraded || res.LiveWorkers != 5 || res.Epoch != 3 {
		t.Fatalf("final membership: %+v", res)
	}

	// Convergence target: the reference optimum of the surviving shards.
	shards := train.Shard(world)
	surv, err := dataset.Concat("survivors", shards[0], shards[1], shards[5], shards[6], shards[7])
	if err != nil {
		t.Fatal(err)
	}
	fstar, _, err := ReferenceOptimum(surv, cfg.Rho, cfg.Lambda, 300)
	if err != nil {
		t.Fatal(err)
	}
	f := res.FinalObjective()
	rel := math.Abs(f-fstar) / math.Abs(fstar)
	if rel > 1e-3 {
		t.Fatalf("degraded run missed the survivors' optimum: f=%v f*=%v rel=%v", f, fstar, rel)
	}
}

// TestElasticDeterministic: scheduled kills land at iteration boundaries
// before any collective can race against discovering them, so elastic
// chaos runs with equal inputs produce bit-identical histories — the
// engine's determinism contract extends to degraded mode. Repetitions
// matter here: the fault fabric's one-shot any-source death report races
// against queued deliveries, so a round retry fires on some executions
// and not others, and Bytes accounting must be retry-invariant (launch
// fan-in bytes ride on the pending batch; see barrierFrame.open).
func TestElasticDeterministic(t *testing.T) {
	train, test := testData(t, 160)
	run := func() *Result {
		cfg := baseConfig(PSRAHGADMM, 4, 2)
		cfg.MaxIter = 12
		cfg.GroupThreshold = 2
		cfg.Elastic = true
		cfg.Faults = &transport.FaultPlan{
			Seed:            7,
			KillAtIteration: map[int]int{3: 3, 2: 6},
		}
		res, err := Run(cfg, train, RunOptions{Test: test})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	for rep := 0; rep < 8; rep++ {
		b := run()
		for i := range a.History {
			if !iterStatEqual(a.History[i], b.History[i]) {
				t.Fatalf("rep %d iter %d differs:\n%+v\n%+v", rep, i, a.History[i], b.History[i])
			}
		}
		if !vec.Equal(a.Z, b.Z) {
			t.Fatalf("rep %d: final iterates differ", rep)
		}
	}
}

// TestElasticSurvivesMidCollectiveKill covers the hard path: the Leader of
// node 1 dies partway through a collective (send-count triggered, not at
// a boundary), so live members are blocked mid-protocol when the death
// surfaces. The latch must unwind them without closing the fabric, the
// membership layer absorbs the death, the node re-elects its surviving
// rank, and the run completes degraded. Timing of the kill is racy by
// construction, so the assertions are structural, not bit-exact.
func TestElasticSurvivesMidCollectiveKill(t *testing.T) {
	train, _ := testData(t, 120)
	for _, alg := range []Algorithm{PSRAHGADMM, PSRAADMM, GRADMM} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := baseConfig(alg, 3, 2)
			cfg.MaxIter = 40
			cfg.Elastic = true
			cfg.Faults = &transport.FaultPlan{
				Seed:           9,
				KillAfterSends: map[int]int{2: 7}, // Leader of node 1
			}
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := Run(cfg, train, RunOptions{})
				done <- outcome{res, err}
			}()
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatalf("elastic run did not survive the kill: %v", o.err)
				}
				if len(o.res.History) != cfg.MaxIter {
					t.Fatalf("completed %d of %d iterations", len(o.res.History), cfg.MaxIter)
				}
				if !o.res.Degraded || o.res.LiveWorkers != 5 {
					t.Fatalf("membership after kill: live=%d degraded=%v", o.res.LiveWorkers, o.res.Degraded)
				}
				if o.res.FinalObjective() >= o.res.History[0].Objective {
					t.Fatalf("no progress after the kill: %v → %v",
						o.res.History[0].Objective, o.res.FinalObjective())
				}
			case <-time.After(120 * time.Second):
				t.Fatal("elastic run hung after mid-collective kill")
			}
		})
	}
}

// TestElasticHappyPathUnchanged: with nobody dying, the elastic machinery
// must be an exact identity — same history, bit for bit, as the
// non-elastic run. The live filters return the full world unchanged, so
// every float is summed in the pre-elastic order.
func TestElasticHappyPathUnchanged(t *testing.T) {
	train, test := testData(t, 160)
	run := func(elastic bool) *Result {
		cfg := baseConfig(PSRAHGADMM, 4, 2)
		cfg.MaxIter = 10
		cfg.GroupThreshold = 2
		cfg.Elastic = elastic
		res, err := Run(cfg, train, RunOptions{Test: test})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, elastic := run(false), run(true)
	for i := range plain.History {
		if !iterStatEqual(plain.History[i], elastic.History[i]) {
			t.Fatalf("iter %d differs:\n%+v\n%+v", i, plain.History[i], elastic.History[i])
		}
	}
	if !vec.Equal(plain.Z, elastic.Z) {
		t.Fatal("final iterates differ")
	}
}

// TestFailStopPartialResultComplete pins the fail-stop error path's
// contract: the partial Result returned alongside the error must be fully
// stamped — Z, SystemTime, and the membership view — not just the history
// (SystemTime used to be left zero on this path).
func TestFailStopPartialResultComplete(t *testing.T) {
	train, _ := testData(t, 120)
	cfg := baseConfig(PSRAHGADMM, 3, 2)
	cfg.MaxIter = 50
	cfg.Faults = &transport.FaultPlan{Seed: 9, KillAfterSends: map[int]int{0: 7}}
	res, err := Run(cfg, train, RunOptions{})
	if err == nil {
		t.Fatal("fail-stop run succeeded despite a killed worker")
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if res.Z == nil {
		t.Fatal("partial result missing Z")
	}
	if res.SystemTime != res.TotalCalTime+res.TotalCommTime {
		t.Fatalf("partial result SystemTime %v != cal %v + comm %v",
			res.SystemTime, res.TotalCalTime, res.TotalCommTime)
	}
	if len(res.History) > 0 && res.SystemTime <= 0 {
		t.Fatal("partial result SystemTime not accumulated")
	}
}
