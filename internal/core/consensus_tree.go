package core

import "psrahgadmm/internal/sparse"

// treeStrategy is PSRA-HGADMM's grouped aggregation, modeled as the
// paper's Algorithms 1–3 with the GG's "next grouping cycle" taken
// literally: a Leader that finishes a group synchronization re-enters the
// GG queue carrying the group's partial aggregate, so arrival-ordered
// groups of GroupThreshold Leaders form a *staged aggregation tree* that
// terminates in one exact global W. Consensus is exact every iteration
// (the property Figure 5's convergence requires); what grouping changes is
// the clock: early arrivals aggregate while stragglers are still
// computing, so the synchronization wait that a flat all-node collective
// serializes behind the slowest node is largely overlapped (the Figure 7
// effect). The flip side — visible at small node counts, and called out in
// the paper's §5.5 and conclusion — is the extra GG round trips and tree
// levels.
//
// Under SSP/async — a composition the monolithic variant could not
// express — stale nodes' cached partials enter the tree as leaves
// available at the cutoff, keeping W a full-N sum while only fresh nodes
// wait for (and receive) the result.

// treeEntry is one GG queue occupant: a Leader (or group representative)
// carrying a partial aggregate that becomes available at ready. An entry is
// named by its index in the round's creation order — leaves first, then
// merges — which also breaks ties between equal ready times.
type treeEntry struct {
	rep   int // world rank of the representative Leader
	value *sparse.Vector
	ready float64
	// leaf is a leaf entry's physical node, -1 for a merge, whose children
	// are kids[kidLo:kidHi]; child 0's rep is the merge's rep.
	leaf         int
	kidLo, kidHi int
}

// treeStrategy rebuilds the tree from the nodes' partials every round, in
// storage it keeps across rounds.
type treeStrategy struct {
	barrierFrame // one participant per node
	// The round's tree: its entries, the ones not yet popped, the GG
	// queue, every merge's children, and each merge's aggregate by merge
	// ordinal — the aggregate travels up the tree as a later merge's input,
	// so each merge needs its own.
	entries []treeEntry
	pending []int
	queue   []int
	kids    []int
	aggs    []*sparse.Vector
	// reps and vals are scratch for one merge's or fan-out's members.
	reps []int
	vals []*sparse.Vector
}

func newTreeStrategy(env *strategyEnv, cfg Config) *treeStrategy {
	return &treeStrategy{barrierFrame: newBarrierFrame(env, cfg.Topo.WorkersPerNode)}
}

func (st *treeStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	var timing iterTiming
	cutoff := st.open(cfg, iter, &timing)

	// Leaves: fresh nodes arrive at their finish time; stale nodes' cached
	// partials are available at the cutoff (the GG retained them). Fully
	// dead nodes are gone: their shards leave the consensus, and the
	// z-update rescales to the surviving worker count below.
	st.entries, st.pending, st.queue, st.kids = st.entries[:0], st.pending[:0], st.queue[:0], st.kids[:0]
	for i, n := range st.live {
		ready := cutoff
		if st.isFresh[n] {
			ready = st.clocks[n].pending.finish
		}
		st.pending = append(st.pending, len(st.entries))
		st.entries = append(st.entries, treeEntry{rep: st.leaders[i], value: st.inputs[i], ready: ready, leaf: n})
	}

	// Grouping threshold: a group of one cannot aggregate, so the
	// effective tree fan-in is at least 2 (unless there is only one node).
	threshold := cfg.GroupThreshold
	if threshold < 2 {
		threshold = 2
	}
	// A robust aggregator is non-associative: a merge of merges would trim
	// trimmed results. Force every node partial into ONE merge group, so
	// the single PSR combine sees all contributions at once. The statistic
	// is then node-granular — one Byzantine worker poisons its node's
	// partial and the trim drops that whole node — which is the honest
	// granularity of a hierarchy that sums within nodes first.
	if env.agg.Robust() && threshold < len(st.live) {
		threshold = len(st.live)
	}

	// Event-driven GG: arrivals (by virtual ready time) enter the queue;
	// a full queue forms a group; when nothing more can arrive, the
	// remainder is flushed. The loop conserves entries, terminating with
	// the single global aggregate.
	for len(st.pending) > 0 || len(st.queue) > 1 {
		if len(st.pending) > 0 {
			st.queue = append(st.queue, st.pop())
			if len(st.queue) < threshold {
				continue
			}
		}
		if err := st.merge(cfg, &timing); err != nil {
			return timing, err
		}
	}

	// Down-pass: the root group's members already hold W (PSR-Allreduce
	// leaves every member with the result) and apply the z-update
	// themselves; what travels down the tree is the *thresholded* z —
	// identical at every worker and far sparser than W. Each
	// representative re-broadcasts down its subtree, and node Leaders
	// broadcast to their fresh workers over the bus; stale nodes are still
	// computing and receive nothing this round.
	// Each block averages over its live subscribers (general-form
	// consensus; the live worker count under the replicated one-block map),
	// and workers retain their subscribed blocks when the delivery lands.
	root := &st.entries[st.queue[0]]
	z := env.store.zFromW(root.value, cfg)
	zBytes := env.codec.ZMsgBytes(z.NNZ())
	if root.leaf >= 0 {
		// Single-node cluster: no tree was built.
		st.descend(cfg, st.queue[0], root.ready, z, zBytes, &timing)
	} else {
		// Every member of the final group holds W at root.ready.
		for _, k := range st.kids[root.kidLo:root.kidHi] {
			st.descend(cfg, k, root.ready, z, zBytes, &timing)
		}
	}
	st.settle(&timing)
	return timing, nil
}

// pop removes and returns the pending entry that arrives first: the least
// ready time, ties to the earlier entry.
func (st *treeStrategy) pop() int {
	b := 0
	for i, k := range st.pending {
		if e, be := &st.entries[k], &st.entries[st.pending[b]]; e.ready < be.ready || e.ready == be.ready && k < st.pending[b] {
			b = i
		}
	}
	k := st.pending[b]
	last := len(st.pending) - 1
	st.pending[b] = st.pending[last]
	st.pending = st.pending[:last]
	return k
}

// merge runs the queue as one GG group: its Leaders allreduce their
// partials once the last is ready and the GG has answered, and the
// aggregate joins the pending entries under the first member's Leader.
func (st *treeStrategy) merge(cfg Config, timing *iterTiming) error {
	start := 0.0
	st.reps, st.vals = st.reps[:0], st.vals[:0]
	for _, k := range st.queue {
		e := &st.entries[k]
		start = maxf(start, e.ready)
		st.reps = append(st.reps, e.rep)
		st.vals = append(st.vals, e.value)
	}
	start += st.ggRoundTrip(cfg, len(st.queue), timing)
	m := len(st.entries) - len(st.live)
	if m == len(st.aggs) {
		st.aggs = append(st.aggs, new(sparse.Vector))
	}
	traces, err := groupAllreduce(st.env, st.reps, commPSRSparse, nil, st.vals, st.aggs[m])
	if err != nil {
		return err
	}
	lo := len(st.kids)
	st.kids = append(st.kids, st.queue...)
	st.pending = append(st.pending, len(st.entries))
	st.entries = append(st.entries, treeEntry{
		rep:   st.reps[0],
		value: st.aggs[m],
		ready: start + st.chargeNominal(cfg, timing, traces...),
		leaf:  -1,
		kidLo: lo, kidHi: len(st.kids),
	})
	st.queue = st.queue[:0]
	return nil
}

// descend delivers z down entry k's subtree from virtual time t. A fresh
// leaf's Leader fans it out to its workers over the bus; a merge's
// representative — child 0's, which already holds it — sends it to the
// other children in one step over the interconnect.
func (st *treeStrategy) descend(cfg Config, k int, t float64, z *sparse.Vector, zBytes int, timing *iterTiming) {
	e := &st.entries[k]
	if e.leaf >= 0 {
		if st.isFresh[e.leaf] {
			st.deliver(cfg, e.leaf, z, t, timing)
		}
		return
	}
	kids := st.kids[e.kidLo:e.kidHi]
	st.reps = st.reps[:0]
	for _, c := range kids {
		st.reps = append(st.reps, st.entries[c].rep)
	}
	tNext := t + st.charge(cfg, timing, st.fanOut(st.reps, zBytes))
	st.descend(cfg, kids[0], t, z, zBytes, timing)
	for _, c := range kids[1:] {
		st.descend(cfg, c, tNext, z, zBytes, timing)
	}
}
