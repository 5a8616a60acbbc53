package core

import (
	"sort"

	"psrahgadmm/internal/sparse"
)

// groupStrategy is the group-local-consensus reading of Algorithms 1–3:
// one grouping round per iteration, each group computing z from its own
// members' W only (scaled by the group's worker count). Fast groups
// proceed without ever waiting for slow nodes — the straggler isolation
// Figure 7 measures — trading per-iteration consensus breadth; rotating
// arrival-ordered membership mixes information across iterations. Under
// SSP/async the isolation compounds: stale nodes are simply absent from
// the round's grouping instead of gating it.
type groupStrategy struct {
	barrierFrame // one participant per node
}

func newGroupStrategy(env *strategyEnv, cfg Config) *groupStrategy {
	return &groupStrategy{newBarrierFrame(env, cfg.Topo.WorkersPerNode)}
}

func (st *groupStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	var timing iterTiming
	st.open(cfg, iter, &timing)

	// GG batching in virtual-arrival order over this round's fresh nodes.
	type nodeAgg struct {
		node    int
		leader  int
		sum     *sparse.Vector
		ready   float64
		workers []int
	}
	order := make([]*nodeAgg, 0, len(st.fresh))
	for _, n := range st.fresh {
		p := st.clocks[n].pending
		order = append(order, &nodeAgg{
			node: n, leader: p.ranks[0], sum: st.wCur[n],
			ready:   p.finish,
			workers: p.ranks,
		})
	}
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].ready != order[b].ready {
			return order[a].ready < order[b].ready
		}
		return order[a].node < order[b].node
	})

	// Phase 1 — fabric traffic only: every group's allreduce completes
	// before ANY worker state mutates, so a failed attempt (peers lost
	// mid-collective) leaves nothing half-applied and the elastic engine
	// can safely retry the whole round.
	type groupResult struct {
		group []*nodeAgg
		agg   *sparse.Vector
		start float64
		commT float64
	}
	threshold := cfg.GroupThreshold
	results := make([]groupResult, 0, (len(order)+threshold-1)/threshold)
	for lo := 0; lo < len(order); lo += threshold {
		hi := lo + threshold
		if hi > len(order) {
			hi = len(order)
		}
		group := order[lo:hi]
		start := 0.0
		leaders := make([]int, len(group))
		inputs := make([]*sparse.Vector, len(group))
		for i, na := range group {
			start = maxf(start, na.ready)
			leaders[i] = na.leader
			inputs[i] = na.sum
		}
		start += st.ggRoundTrip(cfg, len(group), &timing)

		agg, commT := group[0].sum, 0.0
		if len(group) > 1 {
			// The aggregate is retained into results for phase 2, so it
			// gets its own vector rather than crew scratch.
			agg = new(sparse.Vector)
			traces, err := groupAllreduce(env, leaders, commPSRSparse, nil, inputs, agg)
			if err != nil {
				return timing, err
			}
			commT = st.chargeNominal(cfg, &timing, traces...)
		}
		results = append(results, groupResult{
			group: group,
			agg:   agg,
			start: start,
			commT: commT,
		})
	}

	// Phase 2 — apply: each group's z averages over its members'
	// SURVIVING workers, the scaling that keeps a degraded group's
	// consensus exact. Bookkeeping clears after the whole round (settle) so
	// group membership stays stable while groups are processed.
	for _, gr := range results {
		contributors := 0
		for _, na := range gr.group {
			contributors += len(na.workers)
		}
		z := zFromW(gr.agg, cfg.Lambda, cfg.Rho, contributors)
		for _, na := range gr.group {
			st.deliver(cfg, na.node, z, gr.start+gr.commT, &timing)
		}
	}
	st.settle(&timing)
	return timing, nil
}
