package core

import (
	"container/heap"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
)

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

// aggEntry is one queue occupant: a Leader (or group representative)
// carrying a partial aggregate that becomes available at `ready`.
type aggEntry struct {
	seq   int // creation order, deterministic tie-break
	rep   int // world rank of the representative Leader
	value *sparse.Vector
	ready float64
	// children are the entries merged into this one (nil for leaves);
	// child 0's rep is this entry's rep.
	children []*aggEntry
	// leafNode is the physical node for leaf entries, -1 otherwise.
	leafNode int
}

// entryHeap orders by (ready, seq).
type entryHeap []*aggEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)   { *h = append(*h, x.(*aggEntry)) }
func (h *entryHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// treeStrategy adds no state to the barrier frame: the tree is rebuilt
// from the nodes' partials every round.
type treeStrategy struct {
	barrierFrame // one participant per node
}

func newTreeStrategy(env *strategyEnv, cfg Config) *treeStrategy {
	return &treeStrategy{newBarrierFrame(env, cfg.Topo.WorkersPerNode)}
}

func (st *treeStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	var timing iterTiming
	cutoff := st.open(cfg, iter, &timing)

	// Leaves: fresh nodes arrive at their finish time; stale nodes' cached
	// partials are available at the cutoff (the GG retained them). Fully
	// dead nodes are gone: their shards leave the consensus, and the
	// z-update rescales to the surviving worker count below.
	seq := 0
	pending := make(entryHeap, 0, len(st.live))
	for i, n := range st.live {
		ready := cutoff
		if st.isFresh[n] {
			ready = st.clocks[n].pending.finish
		}
		pending = append(pending, &aggEntry{
			seq:      seq,
			rep:      st.leaders[i],
			value:    st.inputs[i],
			ready:    ready,
			leafNode: n,
		})
		seq++
	}
	heap.Init(&pending)

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
	merge := func(group []*aggEntry) (*aggEntry, error) {
		start := 0.0
		leaders := make([]int, len(group))
		inputs := make([]*sparse.Vector, len(group))
		for i, e := range group {
			start = maxf(start, e.ready)
			leaders[i] = e.rep
			inputs[i] = e.value
		}
		start += st.ggRoundTrip(cfg, len(group), &timing)
		// The aggregate travels up the tree as a later merge's input, so
		// each merge gets its own result vector rather than crew scratch.
		agg := new(sparse.Vector)
		traces, err := groupAllreduce(env, leaders, commPSRSparse, nil, inputs, agg)
		if err != nil {
			return nil, err
		}
		e := &aggEntry{
			seq:      seq,
			rep:      group[0].rep,
			value:    agg,
			ready:    start + st.chargeNominal(cfg, &timing, traces...),
			children: group,
			leafNode: -1,
		}
		seq++
		return e, nil
	}

	// Event-driven GG: arrivals (by virtual ready time) enter the queue;
	// a full queue forms a group; when nothing more can arrive, the
	// remainder is flushed. The loop conserves entries, terminating with
	// the single global aggregate.
	var queue []*aggEntry
	var root *aggEntry
	for {
		if pending.Len() == 0 {
			if len(queue) == 1 {
				root = queue[0]
				break
			}
			g, err := merge(queue)
			if err != nil {
				return timing, err
			}
			queue = nil
			heap.Push(&pending, g)
			continue
		}
		e := heap.Pop(&pending).(*aggEntry)
		queue = append(queue, e)
		if len(queue) == threshold {
			g, err := merge(queue)
			if err != nil {
				return timing, err
			}
			queue = nil
			heap.Push(&pending, g)
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
	z := env.store.zFromW(root.value, cfg)
	wBytes := env.codec.ZMsgBytes(z.NNZ())
	var descend func(e *aggEntry, t float64)
	descend = func(e *aggEntry, t float64) {
		if n := e.leafNode; n >= 0 {
			if st.isFresh[n] {
				st.deliver(cfg, n, z, t, &timing)
			}
			return
		}
		// Child 0's rep is e.rep and already holds W; the others receive
		// it in one step over the interconnect.
		tr := collective.Trace{Steps: 1}
		for _, c := range e.children[1:] {
			tr.Events = append(tr.Events, collective.Event{
				Step: 0, From: e.rep, To: c.rep, Bytes: wBytes,
			})
		}
		tNext := t + st.charge(cfg, &timing, tr)
		descend(e.children[0], t)
		for _, c := range e.children[1:] {
			descend(c, tNext)
		}
	}
	if root.leafNode >= 0 {
		// Single-node cluster: no tree was built.
		descend(root, root.ready)
	} else {
		// Every member of the final group holds W at root.ready.
		for _, c := range root.children {
			descend(c, root.ready)
		}
	}
	st.settle(&timing)
	return timing, nil
}
