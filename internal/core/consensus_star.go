package core

import (
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
)

// starStrategy is the master–worker topology: every admitted worker ships
// its (x_i, y_i) to the master colocated with rank 0, which computes z
// from ALL workers' cached contributions and returns it. The master's
// links serialize both directions — the scalability wall §4.1 starts from.
// Under BSP this is classic GC-ADMM (full barrier, every worker fresh
// every round); under SSP it is AD-ADMM's worker-granular partial barrier
// (Zhang & Kwok's async consensus update: stale workers' previous w's
// stay in the sum).
type starStrategy struct {
	// One participant per worker. busyUntil serializes consecutive rounds
	// through the master's NIC.
	barrierFrame
	// Master-side combine: cws carries the combine scratch (the star never
	// runs a wire collective through it), combined is its destination.
	cws      collective.Workspace
	combined *sparse.Vector
}

func newStarStrategy(env *strategyEnv) *starStrategy {
	return &starStrategy{barrierFrame: newBarrierFrame(env, 1)}
}

func (st *starStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	var timing iterTiming
	cutoff := st.open(cfg, iter, &timing)

	// The master — the first live rank; the star has no fabric traffic, so
	// the role simply migrates when a scheduled kill takes it — gathers the
	// fresh workers' contributions and returns z to them. Only fresh
	// workers pay wire time this round.
	end := maxf(cutoff, st.busyUntil) + st.chargeNominal(cfg, &timing, st.starGather(st.leaders[0], st.fresh, env.dim))
	st.busyUntil = end

	// The master is the star's combine point: it already sees every live
	// worker's cached contribution (fresh or stale), so the aggregator — the
	// sum, or the trimmed-mean/median center scaled ×contributors — applies
	// here, and the z-update divides the contributor count back out either
	// way. Each block averages over its live subscribers (the live count
	// under the replicated one-block map); workers retain their subscribed
	// blocks.
	st.combined = st.cws.CombineSparse(env.agg, env.dim, st.inputs, st.combined)
	z := env.store.zFromW(st.combined, cfg)
	env.codec.EncodeSparse(z)

	for _, p := range st.fresh {
		st.deliver(cfg, p, z, end, &timing)
	}
	st.settle(&timing)
	return timing, nil
}
