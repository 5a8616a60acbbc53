package core

import (
	"slices"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/sparse"
)

// stateStore is the consensus state's placement, and there is ONE layout:
// the dimension is block-partitioned and each rank keeps z over the blocks
// it subscribes to, as a sparse view plus its values at the rank's active
// columns (worker.zSparse and worker.zA). Sharded state subscribes a rank to
// the blocks its active columns fall into; replicated state is the same
// layout under the map with one block that every rank subscribes to
// (shard.FullMap) — the view then covers the whole dimension, every
// per-block live count is the live count, and the bodies below perform the
// classic engine's float operations in its order, so a fully subscribed run
// is bit-identical for any block count.
//
// The one decision placement still makes is which schedule reduces W on
// the flat path (allreduceW) and therefore which vector holds a rank's
// result (applyReduced). Everything else — the z-update and its per-block
// live-subscriber divisor, delivery, rejoin, assembly, the per-block codec,
// checkpoints — has one body, here or on the worker.
//
// The map is immutable for the run — elastic regroups change who is ALIVE,
// never who subscribes to what — so placement composes with the SyncModel
// axis: an SSP or async round feeds every LIVE rank's cached (possibly
// stale) contribution into the collective, and each block is scaled by its
// live subscriber count whatever the admission order.
type stateStore struct {
	env  *strategyEnv
	smap *shard.Map
	// sharded selects the shard-aware W collective; replicated state reduces
	// full-width through PSR-Allreduce.
	sharded bool
	// The live-plan cache projects the map onto the current live group,
	// invalidated by membership epoch (group composition is a pure
	// function of who is alive).
	plan      *shard.Plan
	planRanks []int
	planEpoch int
	// counts holds the per-block live subscriber counts — the z-update's
	// per-block divisor — as of membership epoch countsEpoch (-1: none).
	counts      []int
	countsEpoch int
	// offs is the partition's block boundaries [0, ..., dim].
	offs []int
	// z is the round's consensus iterate as zFromW last formed it.
	z sparse.Vector
	// touched collects z̄'s support across the live views (assembleInto).
	touched sparse.IndexSet
}

// newStateStore builds the run's map — subscriptions derived from the
// workers' active columns when sharded, the one-block full map otherwise —
// and starts every worker's consensus view under it. Must run after env.ws
// is populated.
func newStateStore(env *strategyEnv, sharded bool, blocks int) *stateStore {
	s := &stateStore{env: env, sharded: sharded, countsEpoch: -1}
	if sharded {
		if blocks <= 0 {
			blocks = len(env.ws)
		}
		active := make([][]int32, len(env.ws))
		for i, w := range env.ws {
			active[i] = w.active
		}
		s.smap = shard.NewMap(shard.NewPartition(env.dim, blocks), active)
	} else {
		s.smap = shard.FullMap(shard.NewPartition(env.dim, 1), len(env.ws))
	}
	part := s.smap.Part
	s.offs = make([]int, part.Blocks+1)
	for b := 0; b < part.Blocks; b++ {
		s.offs[b] = part.Chunk(b).Lo
	}
	s.offs[part.Blocks] = part.Dim
	for _, w := range env.ws {
		w.initStore(s.smap)
	}
	return s
}

// livePlan projects the shard map onto the given live group ranks, cached
// across rounds and rebuilt only when the membership epoch moves.
func (s *stateStore) livePlan(ranks []int) *shard.Plan {
	if s.plan != nil && s.planEpoch == s.env.members.Epoch() && slices.Equal(s.planRanks, ranks) {
		return s.plan
	}
	s.plan = s.smap.Plan(ranks)
	s.planRanks = append(s.planRanks[:0], ranks...)
	s.planEpoch = s.env.members.Epoch()
	return s.plan
}

// liveCounts returns the per-block live subscriber counts. Each block
// averages over its live subscribers, not the world — off-subscription
// ranks never fed the block's W sum, so dividing by the world would bias z.
// Every change of who is alive moves the epoch, so they are counted once
// per epoch (a restore may reuse an epoch number: see dropCounts).
func (s *stateStore) liveCounts() []int {
	if e := s.env.members.Epoch(); e != s.countsEpoch {
		s.counts = s.smap.LiveCounts(s.counts, s.env.members.Alive)
		s.countsEpoch = e
	}
	return s.counts
}

// dropCounts forgets the cached counts: Tracker.Restore sets the epoch to a
// snapshot's, a number this run may have counted under another dead set.
func (s *stateStore) dropCounts() { s.countsEpoch = -1 }

// allreduceW reduces the live ranks' contributions for the flat path and
// refreshes the round's live counts. Sharded, the shard-aware schedule
// ships only subscribed or owned blocks and leaves each member's RESTRICTED
// result in its crew slot — no rank materializes the full W and agg stays
// untouched; replicated, PSR-Allreduce lands the full aggregate in agg.
func (s *stateStore) allreduceW(ranks []int, inputs []*sparse.Vector, agg *sparse.Vector) ([]collective.Trace, error) {
	var plan *shard.Plan
	if s.sharded {
		plan = s.livePlan(ranks)
	}
	s.liveCounts()
	return groupAllreduce(s.env, ranks, commPSRSparse, plan, inputs, agg)
}

// applyReduced forms z from the round's reduced W and applies it to the
// fresh workers. Replicated, every member holds the same aggregate, so z is
// formed once; sharded, each rank's restricted crew slot is its own W.
func (s *stateStore) applyReduced(cfg Config, fresh []int, agg *sparse.Vector) {
	if !s.sharded {
		s.zFromW(agg, cfg)
	}
	for _, r := range fresh {
		if s.sharded {
			s.zFromW(s.env.crew.outs[r], cfg)
		}
		s.env.ws[r].applyZ(cfg, &s.z)
	}
}

// zFromW forms z from a W sum into the store's iterate and returns it,
// valid until the next call.
func (s *stateStore) zFromW(wsum *sparse.Vector, cfg Config) *sparse.Vector {
	return zFromWBlocks(&s.z, wsum, cfg.Lambda, cfg.Rho, s.offs, s.liveCounts())
}

// assembleInto reconstructs into dst the full-dimension consensus summary
// the engine evaluates: per block, the stored views of the ranks alive
// admits are summed in rank order then averaged over counts[b], the block's
// live subscriber count. Under exact consensus all views are equal and the
// mean is that view; under SSP they may differ transiently and the mean is
// the natural cluster-wide summary. Blocks with no live subscriber stay
// zero (no data couples to them, so their z is provably zero).
//
// It costs the views' nonzeros, not the dimension. A view is added over its
// support only, rank by rank: a view's dense form is +0 off its support and
// the view lies inside the rank's subscription, a sum that starts at +0
// never becomes −0, and x + (+0) is x bit for bit for every other x, NaN
// included — so the terms skipped are exactly the ones that change nothing,
// and the result equals the dense per-block sum of the views (an explicit
// −0 or NaN is an entry, added like any other).
// Only the union of those supports is scaled, since +0 · (1/n) is +0, and
// only dst's previous support is cleared.
func (s *stateStore) assembleInto(dst *zSummary, alive func(rank int) bool, counts []int) {
	for _, j := range dst.supp {
		dst.z[j] = 0
	}
	s.touched.Reset(len(dst.z))
	for r, w := range s.env.ws {
		if alive(r) {
			w.zSparse.AddIntoDense(dst.z, 1)
			for _, j := range w.zSparse.Index {
				s.touched.Mark(j)
			}
		}
	}
	dst.supp = s.touched.Drain(dst.supp[:0])
	// The support ascends (a block cursor, as in zFromWBlocks) and lies in
	// blocks a live view subscribes to, so every count read is at least 1.
	b, hi := -1, 0
	var inv float64
	for _, j := range dst.supp {
		for int(j) >= hi {
			b++
			hi = s.offs[b+1]
			inv = 1 / float64(counts[b])
		}
		dst.z[j] *= inv
	}
}
