package core

import "psrahgadmm/internal/watchdog"

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
//	re-admission: once watchdog.Screen.Probe has counted enough
//	              consecutive clean probes (and reset the screen baseline),
//	              warm-start the rank from the cluster's current iterate,
//	              reset its codec error-feedback, and return it to the
//	              live set — the same rejoin mechanics a crash recovery
//	              uses, minus the fabric revive it never needed.
//
// The robust quorum bound lives here too: a robust aggregator tolerates f
// faulty contributors (TrimF for trimmed-mean, a minority for the median);
// once MORE than f ranks are quarantined the trim can no longer out-vote
// the remaining poison and the run aborts with watchdog.ErrQuorumLost
// (exit code 6 in psra-worker).

// sweep runs the quarantine state machine at the end of iteration iter:
// probe the quarantined (and possibly readmit), quarantine the freshly
// indicted, then enforce the robust quorum bound. zPrev is the cluster's
// last completed iterate — the warm start a readmitted rank resumes from.
// Under the mean no bound is enforced: quarantine then only ever removes
// poison from an exact sum, like an elastic death.
func (env *strategyEnv) sweep(cfg Config, iter int, zPrev []float64, res *Result) error {
	members := env.members

	// Probe quarantined ranks. The rank's x/y froze at quarantine, so the
	// clean part of its contribution is constant; what the probe tracks is
	// the poison schedule riding on top, which the screen judges.
	for r := range env.ws {
		if !members.Quarantined(r) {
			continue
		}
		v := env.ws[r].wSparseInto(&env.probe, cfg.Rho)
		if env.byz != nil {
			env.poisonSparse(r, v)
		}
		if !env.screen.Probe(r, v) {
			continue
		}
		// Re-admission: the same warm-start mechanics a crash rejoin uses,
		// except the fabric never closed — the rank was excluded, not dead.
		env.readmit(r, zPrev)
		members.Unquarantine(r)
		res.Quarantines = append(res.Quarantines, QuarantineEvent{Rank: r, Iter: iter, Readmitted: true})
	}

	// Fresh quarantines: a live rank the screen indicts leaves the live set
	// at this boundary. Its pending compute is pruned by the strategies'
	// reconcile on the next round.
	for r := range env.ws {
		if members.Quarantined(r) || !members.Alive(r) {
			continue
		}
		if env.screen.Indicted(r) {
			members.Quarantine(r)
			res.Quarantines = append(res.Quarantines, QuarantineEvent{Rank: r, Iter: iter})
		}
	}

	return watchdog.Quorum(members.QuarantinedCount(), env.agg.Tolerance(cfg.Topo.Size()))
}
