package core

import (
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/watchdog"
)

// Quarantine protocol for the in-process engine — the semantic-fault rung
// of the failure ladder. Crash faults are caught by the transport
// (PeerDownError) and absorbed by elastic membership; a Byzantine rank
// never crashes, it keeps sending poison. The contribution screen scores
// every contribution at the inspect chokepoint; this file
// turns sustained strikes into membership facts at iteration boundaries:
//
//	quarantined:  excluded from every collective, every z-update divisor,
//	              and every shard live-subscriber count (all of which read
//	              membership.Tracker.Alive) — but NOT transport-dead. The
//	              rank's state freezes; its endpoint stays open.
//	probing:      each iteration the engine rebuilds the rank's would-be
//	              contribution locally (poison schedule still applied) and
//	              screens it without shipping a byte.
//	re-admission: watchdog.QuarantineRounds consecutive clean probes
//	              warm-start the rank from the cluster's current iterate,
//	              reset its codec error-feedback and screen baseline, and
//	              return it to the live set — the same rejoin mechanics a
//	              crash recovery uses, minus the fabric revive it never
//	              needed.
//
// The robust quorum bound lives here too: a robust aggregator tolerates f
// faulty contributors (TrimF for trimmed-mean, a minority for the median);
// once MORE than f ranks are quarantined the trim can no longer out-vote
// the remaining poison and the run aborts with watchdog.ErrQuorumLost
// (exit code 6 in psra-worker).

// quarantineCtl is the engine's per-run quarantine state.
type quarantineCtl struct {
	clean []int          // consecutive clean probes per rank
	probe *sparse.Vector // probe contribution scratch (never shipped)
	fTol  int            // robust tolerance f; -1 when no robust aggregator
}

// newQuarantineCtl sizes the controller for the world; fTol is the
// aggregator's tolerance over it. Under the mean no bound is enforced —
// quarantine then only ever removes poison from an exact sum, like an
// elastic death.
func newQuarantineCtl(cfg Config, agg collective.AggSpec) *quarantineCtl {
	return &quarantineCtl{
		clean: make([]int, cfg.Topo.Size()),
		probe: new(sparse.Vector),
		fTol:  agg.Tolerance(cfg.Topo.Size()),
	}
}

// sweep runs the quarantine state machine at the end of iteration iter:
// probe the quarantined (and possibly readmit), quarantine fresh strike
// limits, then enforce the robust quorum bound. zPrev is the cluster's
// last completed iterate — the warm start a readmitted rank resumes from.
func (q *quarantineCtl) sweep(env *strategyEnv, cfg Config, iter int, zPrev []float64, res *Result) error {
	members := env.members
	limit := env.screen.StrikeLimit()

	// Probe quarantined ranks. The rank's x/y froze at quarantine, so the
	// clean part of its contribution is constant; what the probe tracks is
	// the poison schedule riding on top. A flagged probe resets the clean
	// streak; watchdog.QuarantineRounds clean ones in a row re-admit.
	for r := range env.ws {
		if !members.Quarantined(r) {
			continue
		}
		v := env.ws[r].wSparseInto(q.probe, cfg.Rho)
		if env.inspect(r, v) {
			q.clean[r] = 0
		} else {
			q.clean[r]++
		}
		q.probe = v
		if q.clean[r] < watchdog.QuarantineRounds {
			continue
		}
		// Re-admission: the same warm-start mechanics a crash rejoin uses,
		// except the fabric never closed — the rank was excluded, not dead.
		// The screen baseline resets: the returning regime must earn a
		// fresh one.
		env.readmit(r, zPrev)
		members.Unquarantine(r)
		env.screen.Reset(r)
		q.clean[r] = 0
		res.Quarantines = append(res.Quarantines, QuarantineEvent{Rank: r, Iter: iter, Readmitted: true})
	}

	// Fresh quarantines: a live rank whose consecutive-flag count reached
	// the strike limit leaves the live set at this boundary. Its pending
	// compute is pruned by the strategies' reconcile on the next round.
	for r := range env.ws {
		if members.Quarantined(r) || !members.Alive(r) {
			continue
		}
		if env.screen.Strikes(r) >= limit {
			members.Quarantine(r)
			q.clean[r] = 0
			res.Quarantines = append(res.Quarantines, QuarantineEvent{Rank: r, Iter: iter})
		}
	}

	if q.fTol >= 0 && members.QuarantinedCount() > q.fTol {
		return &watchdog.QuorumError{Quarantined: members.QuarantinedCount(), F: q.fTol}
	}
	return nil
}
