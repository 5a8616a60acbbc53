package core

import (
	"math"
	"testing"

	"psrahgadmm/internal/simnet"
)

func TestSSPCutoffBasics(t *testing.T) {
	mk := func(finish float64, stale int) sspClock {
		return sspClock{pending: &pendingCompute{finish: finish}, staleness: stale}
	}
	clocks := []sspClock{mk(3, 0), mk(1, 0), mk(2, 0), mk(9, 0)}
	var scratch []float64
	if got := sspCutoff(clocks, 2, 5, &scratch); got != 2 {
		t.Fatalf("k=2 cutoff = %v", got)
	}
	if got := sspCutoff(clocks, 4, 5, &scratch); got != 9 {
		t.Fatalf("k=4 cutoff = %v", got)
	}
	// k beyond population clamps.
	if got := sspCutoff(clocks, 99, 5, &scratch); got != 9 {
		t.Fatalf("clamped cutoff = %v", got)
	}
	// A participant at MaxDelay forces the cutoff out to its finish.
	clocks[3].staleness = 5
	if got := sspCutoff(clocks, 1, 5, &scratch); got != 9 {
		t.Fatalf("forced cutoff = %v", got)
	}
	// Empty population.
	if got := sspCutoff(nil, 1, 5, &scratch); got != 0 {
		t.Fatalf("empty cutoff = %v", got)
	}
	// Participants without pending are skipped.
	clocks[0].pending = nil
	clocks[3].staleness = 0
	if got := sspCutoff(clocks, 1, 5, &scratch); got != 1 {
		t.Fatalf("skip-nil cutoff = %v", got)
	}
}

// TestSyncModelRows pins the sync axis: BSP waits for everyone and never
// lets staleness accrue, SSP waits for MinBarrier workers rounded up to whole
// participants (never fewer than one) under MaxDelay, async for one under
// MaxDelay — at worker granularity (8 participants of 1) and at node
// granularity (4 participants of 2 workers).
func TestSyncModelRows(t *testing.T) {
	for _, tc := range []struct {
		kind                     SyncKind
		minBarrier               int
		workerQuorum, nodeQuorum int
		delay                    int
	}{
		{SyncBSP, 3, 8, 4, math.MaxInt},
		{SyncSSP, 3, 3, 2, 5},
		{SyncSSP, 0, 1, 1, 5},
		{SyncAsync, 3, 1, 1, 5},
	} {
		s := syncModel{tc.kind, tc.minBarrier, 5}
		if w, n, d := s.quorum(8, 1), s.quorum(4, 2), s.delay(); w != tc.workerQuorum || n != tc.nodeQuorum || d != tc.delay {
			t.Fatalf("%s MinBarrier %d: quorum %d of 8 workers, %d of 4 nodes, delay %d; want %d, %d, %d",
				tc.kind, tc.minBarrier, w, n, d, tc.workerQuorum, tc.nodeQuorum, tc.delay)
		}
	}
}

func TestADMMLibMinBarrierExtremes(t *testing.T) {
	train, _ := testData(t, 160)
	for _, mb := range []int{1, 8} { // 1 worker (max async) and all workers (BSP-like)
		cfg := baseConfig(ADMMLib, 4, 2)
		cfg.MinBarrier = mb
		cfg.MaxIter = 15
		cfg.Jitter = simnet.Jitter{Seed: 2, Amp: 0.6}
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatalf("MinBarrier=%d: %v", mb, err)
		}
		if res.FinalObjective() >= res.History[0].Objective {
			t.Fatalf("MinBarrier=%d: no progress", mb)
		}
	}
}

func TestADMMLibFullBarrierMatchesGRADMMTrajectoryDirection(t *testing.T) {
	// With MinBarrier = all workers and no jitter, ADMMLib degenerates to
	// synchronous hierarchical ring ADMM — its trajectory should land
	// close to GR-ADMM's (same recursion, ADMMLib adds only fp32
	// rounding).
	train, _ := testData(t, 120)
	run := func(alg Algorithm) float64 {
		cfg := baseConfig(alg, 4, 2)
		cfg.MinBarrier = 8
		cfg.MaxIter = 15
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalObjective()
	}
	a := run(ADMMLib)
	g := run(GRADMM)
	if absf(a-g) > 0.01*(1+absf(g)) {
		t.Fatalf("synchronous ADMMLib %v deviates from GR-ADMM %v beyond fp32 noise", a, g)
	}
}

func TestADADMMWorkerGranularStaleness(t *testing.T) {
	// Strong jitter at worker granularity: AD-ADMM must still converge
	// with half the workers stale each round, and its per-iteration
	// communication must scale with the master's dense traffic.
	train, _ := testData(t, 160)
	cfg := baseConfig(ADADMM, 4, 2)
	cfg.MaxIter = 25
	cfg.Jitter = simnet.Jitter{Seed: 3, Amp: 1.0}
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective() >= res.History[0].Objective {
		t.Fatal("AD-ADMM made no progress under heavy jitter")
	}
	// Dense master exchange: bytes per round at least 2·d·8 per fresh
	// worker; with 8 workers and MinBarrier 4, ≥ 4 fresh per round.
	minPerRound := int64(4 * 2 * train.Dim() * 8)
	perRound := res.TotalBytes / int64(len(res.History))
	if perRound < minPerRound/2 {
		t.Fatalf("AD-ADMM per-round bytes %d implausibly low", perRound)
	}
}

func TestSSPFreshWorkIsConserved(t *testing.T) {
	// Over a run, every worker must become fresh regularly (MaxDelay
	// bound): with MaxDelay=2 no worker can contribute fewer than
	// MaxIter/(MaxDelay+1) x-updates' worth of compute time relative to
	// the most active one. Verified via total cal time being within a
	// factor of the per-round mean times iterations.
	train, _ := testData(t, 160)
	cfg := baseConfig(ADADMM, 4, 2)
	cfg.MaxIter = 30
	cfg.MaxDelay = 2
	cfg.Jitter = simnet.Jitter{Seed: 9, Amp: 0.8}
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, h := range res.History {
		if h.CalTime > 0 {
			rounds++
		}
	}
	if rounds < cfg.MaxIter*2/3 {
		t.Fatalf("only %d of %d rounds did fresh work", rounds, cfg.MaxIter)
	}
}
