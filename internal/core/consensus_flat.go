package core

import "psrahgadmm/internal/sparse"

// flatStrategy is the cluster-wide PSR-Allreduce (§4.2 without the WLG
// framework): every worker is a peer in a single sparse collective; the
// recursion is exact consensus every round. Under BSP the collective
// starts when the slowest worker is ready. Under SSP/async — compositions
// the monolithic variant could not express — the collective runs over
// every worker's cached contribution as soon as the quorum finishes, and
// only fresh workers receive (and pay for) the result.
//
// This strategy is the repo's steady-state allocation benchmark: the frame
// owns every per-round buffer, so a warmed BSP round touches no heap (see
// DESIGN.md "Memory model & buffer ownership").
type flatStrategy struct {
	// One participant per worker. busyUntil serializes consecutive
	// collectives: a new round cannot start before the previous one's result
	// has been delivered.
	barrierFrame
	// agg is the replicated collective's result sink.
	agg *sparse.Vector
}

func newFlatStrategy(env *strategyEnv) *flatStrategy {
	return &flatStrategy{barrierFrame: newBarrierFrame(env, 1), agg: new(sparse.Vector)}
}

func (st *flatStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	var timing iterTiming
	cutoff := st.open(cfg, iter, &timing)

	// Every LIVE worker is a peer in the collective, serving its cached
	// contribution when stale. The store picks the schedule: full-width
	// PSR-Allreduce into st.agg replicated, the shard-aware restricted
	// reduction sharded.
	traces, err := env.store.allreduceW(st.leaders, st.inputs, st.agg)
	if err != nil {
		return timing, err
	}
	end := maxf(cutoff, st.busyUntil) + st.chargeNominal(cfg, &timing, traces...)
	st.busyUntil = end

	// Every member of the collective holds its result; the fresh ones
	// form z from it and apply it.
	env.store.applyReduced(cfg, st.fresh, st.agg)
	for _, p := range st.fresh {
		st.arrive(p, end)
	}
	st.settle(&timing)
	return timing, nil
}
