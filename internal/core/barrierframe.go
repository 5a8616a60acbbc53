package core

import (
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// barrierFrame is the round skeleton every consensus strategy embeds. Its
// unit is the participant: the set of ranks sharing one barrier slot — a
// node for the hierarchical strategies (ring, tree, group-local), whose
// workers stay BSP over the bus behind their Leader, and a single worker
// for flat and star, where participant index and world rank coincide. The
// frame owns what they all share — the per-participant clocks, the cached
// and in-flight partials, every buffer a round reuses — and the round's
// bookends: open (reconcile membership, launch every idle live participant,
// charge the fan-in, admit the sync model's quorum), deliver/arrive (hand an
// admitted batch the round's result) and settle (close the admitted batches
// and average the round's timing). A strategy's Round reads
// open → its own aggregation → deliver → settle, and what stays in the
// strategy is only its own: which Leaders aggregate how, and in what order
// the result is delivered.
//
// Nothing here allocates in steady state: batches, contributions and
// partials live in the frame for the run (see DESIGN.md "Memory model &
// buffer ownership").
type barrierFrame struct {
	env *strategyEnv
	// per is the participant width: participant p is world ranks
	// [p·per, (p+1)·per), in topology order.
	per    int
	clocks []sspClock
	// batches backs clocks[p].pending; its slices are cut from world-sized
	// arrays at participant width, so a launch fills them in place.
	batches []pendingCompute
	// wCur is each participant's cached partial — what its Leader serves
	// while its workers are still computing — and always one of bufs[p]; a
	// launch assembles the in-flight partial in the other, so the vector a
	// collective may still be serving is never written, and admission
	// promotes by swapping which one wCur names.
	wCur []*sparse.Vector
	bufs [][2]*sparse.Vector
	// contrib holds each rank's encoded contribution between launch and
	// admission (reconcile re-sums the survivors' when a member dies in
	// flight). Width-one frames have none: a lone member's contribution is
	// assembled straight into the partial's buffer.
	contrib []*sparse.Vector
	acc     *sparse.Accumulator

	// Round state, set by open: the live participants in index order with
	// each one's live ranks, Leader (first live rank) and cached partial,
	// and the admitted ones — in index order, and as a per-participant flag.
	// arrive accumulates the members' wait+transfer time, in delivery order,
	// for settle.
	live    []int
	ranksOf [][]int
	leaders []int
	inputs  []*sparse.Vector
	fresh   []int
	isFresh []bool
	commSum float64
	applied int
	// busyUntil is when the shared resource consecutive rounds serialize
	// through comes free — the star master's NIC, the ring Leaders' NICs,
	// the flat collective's delivery: such a round starts at
	// max(cutoff, busyUntil). Tree and group-local leave it zero. It is the
	// one strategy scalar a checkpoint carries, which is why it lives here
	// and not in three strategies under three names.
	busyUntil float64

	// Reusable scratch: the launch's idle list and pool batch, the barrier's
	// finish times, the fan-in's message sizes, the model traces' events and
	// the dense ring's chunks.
	idle     []int
	sub      []*worker
	finishes []float64
	sizes    []int
	events   []collective.Event
	chunks   []vec.Chunk
}

func newBarrierFrame(env *strategyEnv, per int) barrierFrame {
	world := len(env.ws)
	n := world / per
	f := barrierFrame{
		env:     env,
		per:     per,
		clocks:  make([]sspClock, n),
		batches: make([]pendingCompute, n),
		wCur:    make([]*sparse.Vector, n),
		bufs:    make([][2]*sparse.Vector, n),
		ranksOf: make([][]int, n),
		isFresh: make([]bool, n),
	}
	live, ranks := make([]int, world), make([]int, world)
	starts, cals := make([]float64, world), make([]float64, world)
	vs := make([]*sparse.Vector, world)
	for p := range f.clocks {
		lo, hi := p*per, (p+1)*per
		f.ranksOf[p] = live[lo:lo:hi]
		f.batches[p] = pendingCompute{
			ranks:  ranks[lo:lo:hi],
			starts: starts[lo:lo:hi],
			cals:   cals[lo:lo:hi],
			vs:     vs[lo:lo:hi],
		}
		f.bufs[p] = [2]*sparse.Vector{sparse.NewVector(env.dim, 0), sparse.NewVector(env.dim, 0)}
		f.wCur[p] = f.bufs[p][0]
	}
	if per > 1 {
		f.acc = sparse.NewAccumulator(env.dim)
		f.contrib = make([]*sparse.Vector, world)
		for r := range f.contrib {
			f.contrib[r] = sparse.NewVector(env.dim, 0)
		}
	}
	return f
}

// frame is how the engine reaches the state every strategy embeds
// (ConsensusStrategy.frame).
func (f *barrierFrame) frame() *barrierFrame { return f }

// muster lists the live participants and each one's live ranks.
func (f *barrierFrame) muster() {
	f.live = f.live[:0]
	for p := range f.ranksOf {
		lr := f.ranksOf[p][:0]
		for r := p * f.per; r < (p+1)*f.per; r++ {
			if f.env.members.Alive(r) {
				lr = append(lr, r)
			}
		}
		f.ranksOf[p] = lr
		if len(lr) > 0 {
			f.live = append(f.live, p)
		}
	}
}

// reconcile absorbs membership changes since the last attempt. Dead (or
// quarantined) members leave every in-flight batch and the partial is
// re-formed from the survivors' retained contributions; a batch with no
// survivor is void. A participant with NO live member leaves the world, and
// its cached partial is emptied with it: Max_delay bounds the rounds since
// a contribution was computed, not since its rank came back, so a rejoiner
// serves what a cold start serves until its first fresh batch is admitted.
// The cached partial of a participant that keeps a live member is left
// as-is — under SSP a dead worker's w can linger in it for at most MaxDelay
// rounds (bounded staleness); under BSP every round is fresh and degraded
// consensus is exact.
func (f *barrierFrame) reconcile() {
	for p := range f.clocks {
		b := f.clocks[p].pending
		switch {
		case len(f.ranksOf[p]) == 0:
			f.clocks[p] = sspClock{}
			f.wCur[p].Reset(f.env.dim)
		case b != nil && f.env.prunePending(b):
			if len(b.ranks) == 0 {
				f.clocks[p] = sspClock{}
			} else {
				f.formPartial(b)
			}
		}
	}
}

// formPartial forms a batch's partial from its members' contributions,
// summed in member order (deterministic association). A lone member's
// contribution already IS the partial — it was assembled in b.w. Under a
// dense codec this is the exchange's rounding point: the Leader rounds the
// sum once, not each contribution. It is the only place a partial is formed
// — at launch, and again by reconcile when a member dies in flight.
func (f *barrierFrame) formPartial(b *pendingCompute) {
	if f.per > 1 {
		for _, v := range b.vs {
			f.acc.Add(v)
		}
		f.acc.SumInto(b.w)
	}
	if f.env.codec.DenseExchange() {
		f.env.codec.EncodeSparse(b.w)
	}
}

// launch runs the x-update on every idle live participant's live workers —
// one batch through the compute pool, whatever the participant count —
// passes each worker's w through the codec and the inspect chokepoint,
// reduces to the participant's Leader over the bus, and parks the partial
// with its availability time. Workers' clocks are NOT advanced here — they
// move to the round's end when the consensus is applied — so the launch is
// identical under BSP and SSP. The fan-in's wire bytes ride on the pending
// batch (see pendingCompute) and are charged in the consuming round: sparse
// messages of the contributions' sizes, or — the dense exchange's cost
// model — dimension-sized ones whatever they hold.
func (f *barrierFrame) launch(cfg Config, iter int) {
	env := f.env
	f.idle, f.sub = f.idle[:0], f.sub[:0]
	for _, p := range f.live {
		if f.clocks[p].pending != nil {
			continue
		}
		f.idle = append(f.idle, p)
		for _, r := range f.ranksOf[p] {
			f.sub = append(f.sub, env.ws[r])
		}
	}
	// The pool's times are per-round scratch; the batches copy theirs out.
	cals := env.pool.run(cfg, f.sub, iter)
	dense := env.codec.DenseExchange()
	for _, p := range f.idle {
		b := &f.batches[p]
		b.ranks = append(b.ranks[:0], f.ranksOf[p]...)
		b.starts, b.cals, b.vs = b.starts[:0], b.cals[:0], b.vs[:0]
		b.w = f.bufs[p][0]
		if b.w == f.wCur[p] {
			b.w = f.bufs[p][1]
		}
		f.sizes = f.sizes[:0]
		ready := 0.0
		for i, r := range b.ranks {
			w := env.ws[r]
			dst := b.w
			if f.per > 1 {
				dst = f.contrib[r]
			}
			v := w.wSparseInto(dst, cfg.Rho)
			if dense {
				env.inspect(r, v)
				f.sizes = append(f.sizes, env.codec.DenseMsgBytes(env.dim))
			} else {
				env.encodeSparse(r, v)
				f.sizes = append(f.sizes, env.codec.SparseMsgBytes(v.NNZ()))
			}
			b.starts = append(b.starts, w.clock)
			b.cals = append(b.cals, cals[i])
			b.vs = append(b.vs, v)
			ready = maxf(ready, w.clock+cals[i])
		}
		cals = cals[len(b.ranks):]
		f.formPartial(b)
		b.finish, b.launchIter, b.launchBytes = ready, iter, 0
		if len(b.ranks) > 1 {
			tr := f.fanIn(b.ranks, f.sizes)
			if !dense {
				env.codec.ScaleTrace(tr)
			}
			b.finish += cfg.Cost.TraceTimeScratch(&env.ts, cfg.Topo, tr)
			b.launchBytes = int64(tr.TotalBytes())
		}
		f.clocks[p].pending = b
	}
}

// fanIn is the one-step trace of a participant's members each shipping its
// sizes[i]-byte message to ranks[0], the Leader, over the node bus. It
// aliases frame scratch, as every model trace below does, valid until the
// next of them.
func (f *barrierFrame) fanIn(ranks, sizes []int) collective.Trace {
	f.events = f.events[:0]
	for i, r := range ranks[1:] {
		f.events = append(f.events, collective.Event{From: r, To: ranks[0], Bytes: sizes[i+1]})
	}
	return collective.Trace{Steps: 1, Events: f.events}
}

// fanOut is the one-step trace of the Leader, ranks[0], broadcasting one
// message of the given size to the other members over the node bus.
func (f *barrierFrame) fanOut(ranks []int, bytes int) collective.Trace {
	f.events = f.events[:0]
	for _, r := range ranks[1:] {
		f.events = append(f.events, collective.Event{From: ranks[0], To: r, Bytes: bytes})
	}
	return collective.Trace{Steps: 1, Events: f.events}
}

// starGather models AD-ADMM's master-side exchange for one round: step 0,
// each fresh worker ships its primal and dual vectors (2·d dense doubles)
// to the master; step 1, the master returns the new z (d dense doubles) to
// each fresh worker. The master's NIC serializes both sides — the scaling
// bottleneck the paper attributes to AD-ADMM. Like fanIn it aliases frame
// scratch.
func (f *barrierFrame) starGather(master int, fresh []int, dim int) collective.Trace {
	up := 4 + wire.DenseEntryBytes*dim*2
	down := 4 + wire.DenseEntryBytes*dim
	f.events = f.events[:0]
	for _, r := range fresh {
		if r == master {
			continue
		}
		f.events = append(f.events,
			collective.Event{Step: 0, From: r, To: master, Bytes: up},
			collective.Event{Step: 1, From: master, To: r, Bytes: down},
		)
	}
	return collective.Trace{Steps: 2, Events: f.events}
}

// denseRing is the whole-group trace of a dense Ring-Allreduce of a
// dim-vector among leaders — ADMMLib's exchange, whose defining property is
// that its volume depends on the dimension alone. Member i's scatter step s
// ships chunk (i−s) mod p to its successor and its gather step t ships
// chunk (i+1−t) mod p — which, numbering the gather steps on from the
// scatter's (s = p−1+t), is chunk (i−s) mod p again — each a full dense
// chunk whatever the data holds. The values themselves travel the sparse
// ring (the sums are identical); this is what the round is charged. Events
// are member-major and step-minor, the order the members' own traces are
// charged in. Like fanIn it aliases frame scratch.
func (f *barrierFrame) denseRing(leaders []int, dim int) collective.Trace {
	p := len(leaders)
	f.chunks = vec.SplitInto(f.chunks, dim, p)
	f.events = f.events[:0]
	for i, r := range leaders {
		for s := 0; s < 2*(p-1); s++ {
			f.events = append(f.events, collective.Event{
				Step: s, From: r, To: leaders[(i+1)%p],
				Bytes: 4 + wire.DenseEntryBytes*f.chunks[(i-s+2*p)%p].Len(),
			})
		}
	}
	return collective.Trace{Steps: 2 * (p - 1), Events: f.events}
}

// charge adds one collective's bytes to the round and returns its virtual
// time. The traces are its members' send logs, charged where they lie:
// the same seconds and bytes as their concatenation.
func (f *barrierFrame) charge(cfg Config, timing *iterTiming, traces ...collective.Trace) float64 {
	for _, tr := range traces {
		timing.bytes += int64(tr.TotalBytes())
	}
	return cfg.Cost.TraceTimeScratch(&f.env.ts, cfg.Topo, traces...)
}

// chargeNominal is charge for traces logged at nominal sparse or dense
// sizes — the W traffic, the star's gather, the dense ring's chunks: each
// is first rescaled, in place and once, to the codec's wire format.
func (f *barrierFrame) chargeNominal(cfg Config, timing *iterTiming, traces ...collective.Trace) float64 {
	for _, tr := range traces {
		f.env.codec.ScaleTrace(tr)
	}
	return f.charge(cfg, timing, traces...)
}

// ggRequestBytes is the payload of a Leader→GG grouping request plus the
// reply (a handful of int64s).
const ggRequestBytes = 4 + 8*2

// ggRoundTrip charges n Leaders' grouping requests to the Group Generator
// and its replies, and returns the round trip's virtual time, at
// inter-node cost.
func (f *barrierFrame) ggRoundTrip(cfg Config, n int, timing *iterTiming) float64 {
	timing.bytes += int64(n * ggRequestBytes * 2)
	return 2 * (cfg.Cost.InterAlpha + float64(ggRequestBytes)*cfg.Cost.InterBeta)
}

// open starts a round: membership changes are reconciled, every idle live
// participant launches, and the sync model's quorum is admitted — the
// admitted batches' partials become the cached ones, and live / ranksOf /
// leaders / inputs / fresh / isFresh describe the round. It returns the
// barrier cutoff.
//
// The launch fan-in is charged by the launch ITERATION rather than the
// launch call (which an elastic retry skips because the batch survives
// attempts): Bytes stay identical whether or not the round needed retries,
// and SSP attribution is unchanged — a stale batch was charged in its own
// launch round.
func (f *barrierFrame) open(cfg Config, iter int, timing *iterTiming) (cutoff float64) {
	env := f.env
	f.muster()
	if env.reconciles() {
		f.reconcile()
	}
	f.launch(cfg, iter)
	for p := range f.clocks {
		if b := f.clocks[p].pending; b != nil && b.launchIter == iter {
			timing.bytes += b.launchBytes
		}
	}
	cutoff = sspCutoff(f.clocks, env.sync.quorum(len(f.live), f.per), env.sync.delay(), &f.finishes)
	f.fresh = admitted(f.clocks, cutoff, f.fresh)
	f.commSum, f.applied = 0, 0
	clear(f.isFresh)
	for _, p := range f.fresh {
		f.isFresh[p] = true
		f.wCur[p] = f.clocks[p].pending.w
	}
	f.leaders, f.inputs = f.leaders[:0], f.inputs[:0]
	for _, p := range f.live {
		f.leaders = append(f.leaders, f.ranksOf[p][0])
		f.inputs = append(f.inputs, f.wCur[p])
	}
	return cutoff
}

// deliver fans the consensus iterate out from admitted participant p's
// Leader, which holds it at virtual time at, to p's batch over the bus —
// one message of the iterate's wire size per other member — and applies it.
// The batch's own rank list is authoritative: in a degraded run it holds
// only the members that were live at launch (minus any pruned since).
func (f *barrierFrame) deliver(cfg Config, p int, z *sparse.Vector, at float64, timing *iterTiming) {
	b := f.clocks[p].pending
	if len(b.ranks) > 1 {
		at += f.charge(cfg, timing, f.fanOut(b.ranks, f.env.codec.ZMsgBytes(z.NNZ())))
	}
	for _, r := range b.ranks {
		f.env.ws[r].applyZ(cfg, z)
	}
	f.arrive(p, at)
}

// arrive records that admitted participant p's batch holds and has applied
// the round's result at virtual time end: the members' clocks move there,
// and everything since their compute finished was wait+transfer.
func (f *barrierFrame) arrive(p int, end float64) {
	b := f.clocks[p].pending
	for i, r := range b.ranks {
		f.commSum += end - b.starts[i] - b.cals[i]
		f.env.ws[r].clock = end
		f.applied++
	}
}

// settle closes the round once every admitted participant has its result:
// the batches clear, the still-pending participants age, and the timing
// takes the per-worker means. Compute time sums in participant-index order
// whatever order the strategy delivered in (commSum is delivery-ordered) —
// float summation order is part of the determinism contract, and it is
// what makes grouped and ungrouped runs report bit-identical CalTime.
func (f *barrierFrame) settle(timing *iterTiming) {
	calSum := 0.0
	for _, p := range f.fresh {
		for _, c := range f.clocks[p].pending.cals {
			calSum += c
		}
		f.clocks[p] = sspClock{}
	}
	bumpStale(f.clocks)
	if f.applied > 0 {
		timing.cal = calSum / float64(f.applied)
		timing.comm = f.commSum / float64(f.applied)
	}
}
