package core

import (
	"cmp"
	"slices"

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
	// The round's grouping, in storage kept across rounds: the fresh nodes
	// in arrival order with each one's Leader and partial, each group's
	// result time and — for a group of more than one — its aggregate, by
	// group ordinal, and the z a group's members receive.
	order []int
	reps  []int
	parts []*sparse.Vector
	ends  []float64
	aggs  []*sparse.Vector
	z     sparse.Vector
}

func newGroupStrategy(env *strategyEnv, cfg Config) *groupStrategy {
	return &groupStrategy{barrierFrame: newBarrierFrame(env, cfg.Topo.WorkersPerNode)}
}

func (st *groupStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	var timing iterTiming
	st.open(cfg, iter, &timing)

	// GG batching in virtual-arrival order over this round's fresh nodes,
	// ties broken by node.
	st.order = append(st.order[:0], st.fresh...)
	slices.SortFunc(st.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(st.clocks[a].pending.finish, st.clocks[b].pending.finish), cmp.Compare(a, b))
	})
	st.reps, st.parts = st.reps[:0], st.parts[:0]
	for _, n := range st.order {
		st.reps = append(st.reps, st.clocks[n].pending.ranks[0])
		st.parts = append(st.parts, st.wCur[n])
	}

	// Phase 1 — fabric traffic only: every group's allreduce completes
	// before ANY worker state mutates, so a failed attempt (peers lost
	// mid-collective) leaves nothing half-applied and the elastic engine
	// can safely retry the whole round. Only the last group can be short,
	// so the aggregates grow in group order.
	threshold := cfg.GroupThreshold
	st.ends = st.ends[:0]
	for g, lo := 0, 0; lo < len(st.order); g, lo = g+1, lo+threshold {
		hi := min(lo+threshold, len(st.order))
		start := 0.0
		for _, n := range st.order[lo:hi] {
			start = maxf(start, st.clocks[n].pending.finish)
		}
		start += st.ggRoundTrip(cfg, hi-lo, &timing)
		commT := 0.0
		if hi-lo > 1 {
			if g == len(st.aggs) {
				st.aggs = append(st.aggs, new(sparse.Vector))
			}
			traces, err := groupAllreduce(env, st.reps[lo:hi], commPSRSparse, nil, st.parts[lo:hi], st.aggs[g])
			if err != nil {
				return timing, err
			}
			commT = st.chargeNominal(cfg, &timing, traces...)
		}
		st.ends = append(st.ends, start+commT)
	}

	// Phase 2 — apply: each group's z averages over its members'
	// SURVIVING workers, the scaling that keeps a degraded group's
	// consensus exact. Bookkeeping clears after the whole round (settle) so
	// group membership stays stable while groups are processed.
	for g, lo := 0, 0; lo < len(st.order); g, lo = g+1, lo+threshold {
		group := st.order[lo:min(lo+threshold, len(st.order))]
		agg := st.parts[lo]
		if len(group) > 1 {
			agg = st.aggs[g]
		}
		contributors := 0
		for _, n := range group {
			contributors += len(st.clocks[n].pending.ranks)
		}
		z := zFromW(&st.z, agg, cfg.Lambda, cfg.Rho, contributors)
		for _, n := range group {
			st.deliver(cfg, n, z, st.ends[g], &timing)
		}
	}
	st.settle(&timing)
	return timing, nil
}
