package wlg

import (
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
)

// byzElasticWorld runs an elastic world where one member rank returns a
// sign-flipped, scaled contribution for a window of iterations, and
// records every rank's applied aggregates and counts. The healthy ranks'
// ComputeW carries a tiny sleep so the cluster advances on a wall-clock
// scale the victim's (purely local, fast) probation easily beats — the
// rejoin then lands well before MaxIter without any timing assumptions
// beyond "milliseconds beat microseconds".
func byzElasticWorld(t *testing.T, fab transport.Fabric, cfg Config, victim, evilFrom, evilUntil int) *elasticRecorder {
	t.Helper()
	topo := cfg.Topo
	rec := &elasticRecorder{
		agg:    make([][][]float64, topo.Size()),
		counts: make([][]int, topo.Size()),
	}
	var mu sync.Mutex
	for r := range rec.agg {
		rec.agg[r] = make([][]float64, cfg.MaxIter)
		rec.counts[r] = make([]int, cfg.MaxIter)
	}
	funcs := func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 {
				time.Sleep(4 * time.Millisecond)
				v := rankVec(3, rank)
				if rank == victim && iter >= evilFrom && iter < evilUntil {
					for i := range v {
						v[i] *= -100
					}
				}
				return v
			},
			ApplyW: func(iter int, w []float64, n int) {
				mu.Lock()
				rec.agg[rank][iter] = vec.Clone(w)
				rec.counts[rank][iter] = n
				mu.Unlock()
			},
		}
	}
	type outcome struct {
		info *RunInfo
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		info, err := RunWithInfo(fab, cfg, funcs)
		done <- outcome{info, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("byzantine elastic run failed: %v", o.err)
		}
		rec.info = o.info
	case <-time.After(120 * time.Second):
		t.Fatal("byzantine elastic run hung")
	}
	return rec
}

// TestElasticQuarantineProbationRejoin is the full semantic-fault cycle:
// a member turns Byzantine (sign-flip ×100) for a few iterations, the
// Leader's screen excludes every poisoned contribution from the node sum,
// two strikes quarantine the rank, the evidence reaches every rank via
// the GG's log, the victim self-detects, serves probation locally, and
// re-enters through the rejoin handshake once its contributions come
// clean — so the final iterations aggregate the whole world again.
func TestElasticQuarantineProbationRejoin(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{
		Topo:    topo,
		MaxIter: 30,
		Elastic: true,
		Screen:  watchdog.ScreenConfig{Enabled: true},
		// A short retry budget keeps the victim's "my Leader stopped
		// broadcasting to me" stall well under the throttled cluster's
		// remaining runtime, so the rejoin lands before MaxIter.
		Retry: collective.RetryPolicy{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
	}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	const victim, evilFrom, evilUntil = 3, 4, 8
	rec := byzElasticWorld(t, fab, cfg, victim, evilFrom, evilUntil)

	// The poisoned iteration is excluded deterministically: the Leader's
	// baseline matured on iterations 0–2, so iteration evilFrom flags and
	// stays out of the sum — no healthy rank ever applies a value with the
	// victim's flipped contribution folded in.
	for r := 0; r < topo.Size(); r++ {
		if r == victim {
			continue
		}
		got := rec.agg[r][evilFrom]
		if got == nil {
			t.Fatalf("rank %d never applied iteration %d", r, evilFrom)
		}
		if ranks := decodeRanks(got[0], topo.Size()); ranks[victim] {
			t.Fatalf("rank %d iter %d: poisoned contribution leaked into %v", r, evilFrom, got[0])
		}
		if rec.counts[r][evilFrom] != topo.Size()-1 {
			t.Fatalf("rank %d iter %d contributors = %d, want %d", r, evilFrom, rec.counts[r][evilFrom], topo.Size()-1)
		}
	}
	// No aggregate anywhere may carry a poisoned value: every applied sum
	// decodes to a subset of honest contributions (plus possibly the
	// victim's honest ones before and after the attack window).
	for r := 0; r < topo.Size(); r++ {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if rec.agg[r][iter] == nil {
				continue
			}
			sum := rec.agg[r][iter][0]
			if sum < 1 || sum != float64(int64(sum)) || int64(sum) >= int64(1)<<topo.Size() {
				t.Fatalf("rank %d iter %d: aggregate %v is not a clean rank-subset sum", r, iter, sum)
			}
		}
	}
	// The victim must have come back: the last iteration is whole-world
	// consensus again, victim included.
	last := cfg.MaxIter - 1
	for r := 0; r < topo.Size(); r++ {
		if rec.agg[r][last] == nil {
			t.Fatalf("rank %d never applied the final iteration %d (rejoin did not land)", r, last)
		}
		if rec.counts[r][last] != topo.Size() {
			t.Fatalf("rank %d final contributors = %d, want %d (victim not re-admitted)", r, rec.counts[r][last], topo.Size())
		}
		if ranks := decodeRanks(rec.agg[r][last][0], topo.Size()); !ranks[victim] {
			t.Fatalf("rank %d final aggregate %v misses the re-admitted victim", r, rec.agg[r][last][0])
		}
	}
	if rec.info.Flagged < 2 {
		t.Fatalf("screen flagged %d contributions, want >= 2 (strike limit)", rec.info.Flagged)
	}
	if rec.info.SelfQuarantines < 1 {
		t.Fatalf("victim never entered probation: %+v", rec.info)
	}
	if !rec.info.Degraded() {
		t.Fatalf("a quarantine cycle must report degradation: %+v", rec.info)
	}
}

// TestElasticQuarantineLogDupReorder replays the quarantine cycle
// over a fabric that duplicates and reorders frames. The evidence path is
// at-least-once by design (the Leader re-sends until the log confirms),
// so duplication and reordering must change nothing observable: the run
// completes, the poisoned window stays excluded, and the victim is
// quarantined exactly once per incarnation (idempotent application at the
// GG and in every rank's log fold).
func TestElasticQuarantineLogDupReorder(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{
		Topo:    topo,
		MaxIter: 30,
		Elastic: true,
		Screen:  watchdog.ScreenConfig{Enabled: true},
		Retry:   collective.RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
	fab := transport.NewFaultFabric(
		transport.NewChanFabric(WorldSize(topo)),
		transport.FaultPlan{Seed: 11, DupProb: 0.05, ReorderProb: 0.2},
	)
	defer fab.Close()
	// A reordered contribution is held until the member's NEXT send, so
	// the Leader skips (never observes) it — each gather has a ~ReorderProb
	// chance of not feeding the screen. The attack starts late enough that
	// baseline maturity is certain despite skips, and runs long enough that
	// observing two malicious frames (the strike limit) is near-certain.
	const victim, evilFrom, evilUntil = 1, 10, 18
	rec := byzElasticWorld(t, fab, cfg, victim, evilFrom, evilUntil)

	// Under duplication the same poisoned frame can be screened twice and
	// the same evidence applied many times; none of it may leak a flipped
	// value into any applied aggregate.
	for r := 0; r < topo.Size(); r++ {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if rec.agg[r][iter] == nil {
				continue
			}
			sum := rec.agg[r][iter][0]
			if sum < 1 || sum != float64(int64(sum)) || int64(sum) >= int64(1)<<topo.Size() {
				t.Fatalf("rank %d iter %d: aggregate %v is not a clean rank-subset sum", r, iter, sum)
			}
		}
	}
	if rec.info.Flagged < 2 {
		t.Fatalf("screen flagged %d contributions, want >= 2", rec.info.Flagged)
	}
	if rec.info.SelfQuarantines < 1 {
		t.Fatalf("victim never entered probation: %+v", rec.info)
	}
	// Some healthy iteration inside the attack window ran without the
	// victim — exclusion happened despite the noisy fabric.
	excluded := false
	for iter := evilFrom; iter < cfg.MaxIter && !excluded; iter++ {
		if rec.agg[0][iter] != nil && !decodeRanks(rec.agg[0][iter][0], topo.Size())[victim] {
			excluded = true
		}
	}
	if !excluded {
		t.Fatal("victim was never excluded from any aggregate")
	}
}
