package core

import (
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
)

// nodeFrame is the node-granular barrier frame the hierarchical strategies
// (ring, tree, group-local) embed: workers within a node stay BSP over the
// bus, nodes synchronize through the SyncModel. It owns everything the
// three share — the per-node clocks, the cached and in-flight node
// partials, and the round's two bookends: open (reconcile membership,
// launch every idle live node, charge the fan-in, admit the quorum) and
// settle (close the admitted batches and average the round's timing). What
// stays in a strategy is only its own: which Leaders aggregate how, and in
// what order z is delivered.
type nodeFrame struct {
	env    *strategyEnv
	clocks []sspClock // per node
	// wCur is each node's cached partial — what a stale node's Leader serves
	// while its workers are still computing; pend is the in-flight one,
	// promoted to wCur on admission.
	wCur []*sparse.Vector
	pend []*sparse.Vector
	// Round state: open names the admitted nodes — in index order, and as
	// a per-node flag — and deliver accumulates the members' wait+transfer
	// time, in delivery order, for settle.
	fresh   []int
	isFresh []bool
	commSum float64
	applied int
	// Reusable scratch: the barrier's finish times and the partial sum's
	// accumulator.
	finishes []float64
	acc      *sparse.Accumulator
}

func newNodeFrame(env *strategyEnv, cfg Config) nodeFrame {
	nodes := cfg.Topo.Nodes
	f := nodeFrame{
		env:     env,
		clocks:  make([]sspClock, nodes),
		wCur:    make([]*sparse.Vector, nodes),
		pend:    make([]*sparse.Vector, nodes),
		isFresh: make([]bool, nodes),
		acc:     sparse.NewAccumulator(env.dim),
	}
	for n := range f.wCur {
		f.wCur[n] = sparse.NewVector(env.dim, 0)
	}
	return f
}

// partial forms a node's partial from its members' contributions, summed in
// member order (deterministic association). Under a dense codec this is the
// exchange's rounding point: the Leader rounds the sum once, not each
// contribution. It is the only place a node partial is formed — at launch,
// and again by reconcile when a member dies in flight.
func (f *nodeFrame) partial(vs []*sparse.Vector) *sparse.Vector {
	for _, v := range vs {
		f.acc.Add(v)
	}
	sum := f.acc.Sum()
	if f.env.codec.DenseExchange() {
		f.env.codec.EncodeSparse(sum)
	}
	return sum
}

// reconcile absorbs membership changes since the last attempt: dead
// members leave every in-flight batch and the node partial is rebuilt from
// the survivors' retained contributions. A node with no survivors drops
// out entirely. Cached stale partials (wCur) are left as-is — under SSP a
// dead worker's w can linger in a live node's cached partial for at most
// MaxDelay rounds (bounded staleness); under BSP every round is fresh and
// degraded consensus is exact.
func (f *nodeFrame) reconcile() {
	for n := range f.clocks {
		p := f.clocks[n].pending
		if p == nil || !f.env.prunePending(p) {
			continue
		}
		if len(p.ranks) == 0 {
			f.clocks[n] = sspClock{}
			f.pend[n] = nil
			continue
		}
		f.pend[n] = f.partial(p.vs)
	}
}

// launch runs the x-update on idle node n's live workers, passes each
// worker's w through the codec and the inspect chokepoint, reduces to the
// node Leader over the bus, and parks the partial with its availability
// time. Workers' clocks are NOT advanced here — they move to the round's
// end when the consensus is applied — so the launch is identical under BSP
// and SSP. The fan-in's wire bytes ride on the pending batch (see
// pendingCompute) and are charged in the consuming round: sparse messages
// of the contributions' sizes, or — the dense exchange's cost model —
// dimension-sized ones whatever they hold.
func (f *nodeFrame) launch(cfg Config, n, iter int) {
	env := f.env
	topo := cfg.Topo
	dense := env.codec.DenseExchange()
	ranks := env.liveWorkersOf(topo, n)
	sub := make([]*worker, len(ranks))
	for i, r := range ranks {
		sub[i] = env.ws[r]
	}
	// The pool's times slice is per-round scratch; the pending batch
	// outlives the round, so it keeps its own copy.
	cals := append([]float64(nil), env.pool.run(cfg, sub, iter)...)
	starts := make([]float64, len(ranks))
	vs := make([]*sparse.Vector, len(ranks))
	nnzs := make([]int, len(ranks))
	ready := 0.0
	for i, w := range sub {
		starts[i] = w.clock
		// The contributions are retained past the round: reconcile re-sums
		// them when a member dies in flight.
		vs[i] = w.wSparse(cfg.Rho)
		if dense {
			env.inspect(ranks[i], vs[i])
		} else {
			env.encodeSparse(ranks[i], vs[i])
		}
		nnzs[i] = vs[i].NNZ()
		ready = maxf(ready, w.clock+cals[i])
	}
	var tr collective.Trace
	if dense {
		tr = denseFanTrace(ranks, ranks[0], env.codec.DenseMsgBytes(env.dim), true)
	} else {
		tr = env.codec.WireTrace(intraReduceTrace(ranks, ranks[0], nnzs))
	}
	f.pend[n] = f.partial(vs)
	f.clocks[n].pending = &pendingCompute{
		finish:      ready + cfg.Cost.TraceTime(topo, tr),
		ranks:       ranks,
		starts:      starts,
		cals:        cals,
		vs:          vs,
		launchIter:  iter,
		launchBytes: traceBytes(tr),
	}
}

// open starts a round: membership changes are reconciled, every idle live
// node launches, and the SyncModel's quorum is admitted — f.fresh/f.isFresh
// name the admitted nodes and their partials become the cached ones. It
// returns the live nodes, each node's live ranks, and the barrier cutoff.
//
// The launch fan-in is charged by the launch ITERATION rather than the
// launch call (which an elastic retry skips because the batch survives
// attempts): Bytes stay identical whether or not the round needed retries,
// and SSP attribution is unchanged — a stale batch was charged in its own
// launch round.
func (f *nodeFrame) open(cfg Config, iter int, timing *iterTiming) (liveNodes []int, ranksOf [][]int, cutoff float64) {
	env := f.env
	if env.reconciles() {
		f.reconcile()
	}
	liveNodes, ranksOf = env.liveNodes(cfg.Topo)
	for _, n := range liveNodes {
		if f.clocks[n].pending == nil {
			f.launch(cfg, n, iter)
		}
	}
	for n := range f.clocks {
		if p := f.clocks[n].pending; p != nil && p.launchIter == iter {
			timing.bytes += p.launchBytes
		}
	}
	cutoff = sspCutoff(f.clocks, env.sync.Quorum(len(liveNodes), cfg.Topo.WorkersPerNode), env.sync.Delay(), &f.finishes)
	f.fresh = admitted(f.clocks, cutoff, f.fresh)
	f.commSum, f.applied = 0, 0
	clear(f.isFresh)
	for _, n := range f.fresh {
		f.isFresh[n] = true
		f.wCur[n] = f.pend[n]
	}
	return liveNodes, ranksOf, cutoff
}

// deliver fans the consensus iterate out from admitted node n's Leader,
// which holds it at virtual time at, to the node's batch over the bus — a
// sparse message of z's size, or the dense exchange's fixed-format one —
// and applies it. The batch's own rank list is authoritative: in a degraded
// run it holds only the members that were live at launch (minus any pruned
// since).
func (f *nodeFrame) deliver(cfg Config, n int, z *sparse.Vector, at float64, timing *iterTiming) {
	env := f.env
	p := f.clocks[n].pending
	var bc collective.Trace
	if env.codec.DenseExchange() {
		bc = denseFanTrace(p.ranks, p.ranks[0], env.codec.ZMsgBytes(z.NNZ()), false)
	} else {
		bc = intraBcastTrace(p.ranks, p.ranks[0], z.NNZ())
	}
	timing.bytes += traceBytes(bc)
	end := at + cfg.Cost.TraceTime(cfg.Topo, bc)
	for i, r := range p.ranks {
		w := env.ws[r]
		w.applyZ(cfg, z)
		f.commSum += end - p.starts[i] - p.cals[i]
		w.clock = end
		f.applied++
	}
}

// settle closes the round once every admitted node has its z: the batches
// clear, the still-pending nodes age, and the timing takes the per-worker
// means. Compute time sums in node-index order whatever order the strategy
// delivered in (commSum is delivery-ordered) — float summation order is
// part of the determinism contract, and it is what makes grouped and
// ungrouped runs report bit-identical CalTime.
func (f *nodeFrame) settle(timing *iterTiming) {
	calSum := 0.0
	for _, n := range f.fresh {
		for _, c := range f.clocks[n].pending.cals {
			calSum += c
		}
		f.clocks[n].pending = nil
		f.clocks[n].staleness = 0
		f.pend[n] = nil
	}
	bumpStale(f.clocks)
	if f.applied > 0 {
		timing.cal = calSum / float64(f.applied)
		timing.comm = f.commSum / float64(f.applied)
	}
}
