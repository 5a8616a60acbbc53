package core

import (
	"errors"

	"psrahgadmm/internal/sparse"
)

// Elastic membership for the in-process engine: the fail-survive half of
// the failure model. When Config.Elastic is set, a dead rank does not
// abort the run — the strategies prune it from every collective and
// pending batch, the z-update averages over the survivors (the
// `contributors` scaling that keeps degraded consensus mathematically
// exact), and the engine retries the round over the shrunken world. The
// membership.Tracker is the single source of truth all of it consults.

// errPeersLost marks a round failure caused by group members dying
// mid-collective. It is the ONLY error the elastic engine retries: after
// the tracker absorbs the deaths, the next attempt runs over survivors.
var errPeersLost = errors.New("core: live peers lost mid-round")

// errRoundAborted is the latch's local unblock signal: another member of
// the same collective failed, so this member's attempt is void (see
// crew.stop). Never escapes groupAllreduce.
var errRoundAborted = errors.New("core: round attempt aborted")

// errScheduledKill is the cause recorded for deaths injected by
// FaultPlan.KillAtIteration.
var errScheduledKill = errors.New("scheduled kill (fault plan)")

// liveWorkers returns the live workers' state in rank order. With nobody
// dead it returns the full slice unchanged, so the happy path sums in
// exactly the pre-elastic order.
func (env *strategyEnv) liveWorkers() []*worker {
	if env.members.LiveCount() == len(env.ws) {
		return env.ws
	}
	out := make([]*worker, 0, env.members.LiveCount())
	for _, w := range env.ws {
		if env.members.Alive(w.rank) {
			out = append(out, w)
		}
	}
	return out
}

// readmit returns rank r to the computation at an iteration boundary, just
// before the membership counts it live again — a scheduled rejoin and a
// quarantine re-admission alike. Its virtual clock jumps to the live
// maximum (it models a process that was absent, not one that computed), its
// view warm-starts from zPrev, the cluster's last iterate (worker.rejoin),
// and its top-k error feedback restarts clean: the residual described
// contributions it never shipped (k re-derives on first encode).
func (env *strategyEnv) readmit(r int, zPrev []float64) {
	var maxClock float64
	for _, w := range env.liveWorkers() {
		if w.clock > maxClock {
			maxClock = w.clock
		}
	}
	env.ws[r].rejoin(sparse.FromDense(zPrev), maxClock)
	if env.states != nil {
		env.states[r].Reset()
	}
}

// prunePending drops dead members from an in-flight batch in place,
// reporting whether anything was removed. A batch can shrink to zero
// members; the caller then discards it entirely.
func (env *strategyEnv) prunePending(p *pendingCompute) bool {
	keep := 0
	for i, r := range p.ranks {
		if !env.members.Alive(r) {
			continue
		}
		p.ranks[keep] = p.ranks[i]
		p.starts[keep] = p.starts[i]
		p.cals[keep] = p.cals[i]
		p.vs[keep] = p.vs[i]
		keep++
	}
	if keep == len(p.ranks) {
		return false
	}
	p.ranks = p.ranks[:keep]
	p.starts = p.starts[:keep]
	p.cals = p.cals[:keep]
	p.vs = p.vs[:keep]
	return true
}
