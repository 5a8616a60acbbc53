package core

import "psrahgadmm/internal/sparse"

// ringStrategy is the hierarchical Ring-Allreduce: workers reduce their w
// over the node bus to their Leader, all Leaders run one Ring-Allreduce,
// and the (much sparser) z fans back out. GR-ADMM is this ring with the
// exact sparse exchange under BSP; ADMMLib is the same ring with the dense
// single-precision exchange under node-granular SSP. The values take the
// same path either way — sparse vectors through the sparse ring. What a
// dense codec changes is where they are rounded (the node partial once,
// then W and z at the Leaders) and what the round is charged:
// dimension-sized messages on the fan-in, the ring and the fan-out, the
// full parameter vector circulating regardless of sparsity — which is why
// ADMMLib's communication volume is flat in cluster size and why PSRA's
// sparse exchange undercuts it.
type ringStrategy struct {
	// One participant per node. busyUntil serializes consecutive rings
	// through the Leaders' NICs.
	barrierFrame
	// agg is the ring's result sink.
	agg *sparse.Vector
}

func newRingStrategy(env *strategyEnv, cfg Config) *ringStrategy {
	return &ringStrategy{barrierFrame: newBarrierFrame(env, cfg.Topo.WorkersPerNode), agg: new(sparse.Vector)}
}

func (st *ringStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	dense := env.codec.DenseExchange()
	var timing iterTiming
	cutoff := st.open(cfg, iter, &timing)

	// The ring runs among every live node's Leader (the node's first
	// surviving rank) — stale Leaders serve their cached partial.
	ringStart := maxf(cutoff, st.busyUntil)
	var commT float64
	agg := st.inputs[0]
	if len(st.live) > 1 {
		traces, err := groupAllreduce(env, st.leaders, commRingSparse, nil, st.inputs, st.agg)
		if err != nil {
			return timing, err
		}
		agg = st.agg
		if dense {
			commT = st.chargeNominal(cfg, &timing, st.denseRing(st.leaders, env.dim))
		} else {
			commT = st.chargeNominal(cfg, &timing, traces...)
		}
	} else if dense {
		// Copy: the rounding below mutates the aggregate, and the cached
		// partial must stay intact for later stale rounds.
		st.agg.ReuseFrom(agg)
		agg = st.agg
	}
	ringEnd := ringStart + commT
	st.busyUntil = ringEnd

	// Leaders hold W after the ring; they apply the z-update — averaging
	// over the surviving workers, the one block's live subscribers under the
	// replicated map the ring requires — and fan the thresholded z to their
	// fresh workers. The dense exchange rounds both at the Leaders.
	if dense {
		env.codec.EncodeSparse(agg)
	}
	z := env.store.zFromW(agg, cfg)
	if dense {
		env.codec.EncodeSparse(z)
	}

	for _, p := range st.fresh {
		st.deliver(cfg, p, z, ringEnd, &timing)
	}
	st.settle(&timing)
	return timing, nil
}
