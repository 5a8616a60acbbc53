package core

import (
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// ringStrategy is the hierarchical Ring-Allreduce: workers reduce their w
// over the node bus to their Leader, all Leaders run one Ring-Allreduce,
// and the (much sparser) z fans back out. The codec decides the wire
// format — GR-ADMM is this ring with the exact sparse exchange under BSP;
// ADMMLib is the same ring with the dense single-precision exchange under
// node-granular SSP (the full parameter vector circulates regardless of
// sparsity, which is why its communication volume is flat in cluster size
// and why PSRA's sparse exchange undercuts it).
type ringStrategy struct {
	env    *strategyEnv
	clocks []sspClock // per node
	// Dense-codec state: cached and in-flight per-node dense sums.
	wCurD [][]float64
	pendD [][]float64
	// Sparse-codec state: cached and in-flight per-node sparse sums.
	wCurS []*sparse.Vector
	pendS []*sparse.Vector
	// lastRingEnd serializes consecutive rings through the Leaders' NICs.
	lastRingEnd float64
	// Reusable round scratch: barrier bookkeeping plus the ring's result
	// sinks (aggS for the sparse exchange, bigWBuf for the dense one).
	finishes []float64
	fresh    []int
	aggS     *sparse.Vector
	bigWBuf  []float64
}

func newRingStrategy(env *strategyEnv, cfg Config) *ringStrategy {
	nodes := cfg.Topo.Nodes
	st := &ringStrategy{env: env, clocks: make([]sspClock, nodes)}
	if env.codec.DenseExchange() {
		st.wCurD = make([][]float64, nodes)
		st.pendD = make([][]float64, nodes)
		for n := range st.wCurD {
			st.wCurD[n] = make([]float64, env.dim)
		}
		st.bigWBuf = make([]float64, env.dim)
	} else {
		st.wCurS = make([]*sparse.Vector, nodes)
		st.pendS = make([]*sparse.Vector, nodes)
		for n := range st.wCurS {
			st.wCurS[n] = sparse.NewVector(env.dim, 0)
		}
		st.aggS = new(sparse.Vector)
	}
	return st
}

// reconcile absorbs membership changes: dead members leave every
// in-flight batch, whose partial sum is rebuilt from the survivors'
// retained contributions (re-encoded for the dense exchange). Cached
// stale contributions follow the bounded-staleness contract described on
// treeStrategy.reconcile.
func (st *ringStrategy) reconcile() {
	env := st.env
	dense := env.codec.DenseExchange()
	for n := range st.clocks {
		p := st.clocks[n].pending
		if p == nil || !env.prunePending(p) {
			continue
		}
		if len(p.ranks) == 0 {
			st.clocks[n] = sspClock{}
			if dense {
				st.pendD[n] = nil
			} else {
				st.pendS[n] = nil
			}
			continue
		}
		if dense {
			sum := make([]float64, env.dim)
			for _, v := range p.vs {
				v.AddIntoDense(sum, 1)
			}
			env.codec.EncodeDense(sum)
			st.pendD[n] = sum
		} else {
			st.pendS[n] = sumSparse(env.dim, p.vs)
		}
	}
}

func (st *ringStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	topo := cfg.Topo
	wpn := topo.WorkersPerNode
	dense := env.codec.DenseExchange()
	var timing iterTiming

	if env.reconciles() {
		st.reconcile()
	}
	liveNodes, ranksOf := env.liveNodes(topo)

	// Launch compute on every idle live node.
	for _, n := range liveNodes {
		if st.clocks[n].pending != nil {
			continue
		}
		if dense {
			st.pendD[n] = st.launchNodeDense(cfg, n, iter)
		} else {
			c := launchNodeSparse(env, cfg, n, iter)
			st.pendS[n] = c.sum
			st.clocks[n].pending = c.pending
		}
	}
	chargeLaunchBytes(st.clocks, iter, &timing)

	cutoff := sspCutoff(st.clocks, env.sync.Quorum(len(liveNodes), wpn), env.sync.Delay(), &st.finishes)
	st.fresh = admitted(st.clocks, cutoff, st.fresh)
	freshNodes := st.fresh
	for _, n := range freshNodes {
		if dense {
			st.wCurD[n] = st.pendD[n]
		} else {
			st.wCurS[n] = st.pendS[n]
		}
	}

	// The ring runs among every live node's Leader (the node's first
	// surviving rank) — stale Leaders serve their cached contribution.
	leaders := make([]int, 0, len(liveNodes))
	inputsD := make([][]float64, 0, len(liveNodes))
	inputsS := make([]*sparse.Vector, 0, len(liveNodes))
	for _, n := range liveNodes {
		leaders = append(leaders, ranksOf[n][0])
		if dense {
			inputsD = append(inputsD, st.wCurD[n])
		} else {
			inputsS = append(inputsS, st.wCurS[n])
		}
	}
	ringStart := maxf(cutoff, st.lastRingEnd)
	var commT float64
	var bigW []float64
	var agg *sparse.Vector
	if len(liveNodes) == 1 {
		if dense {
			// Copy: EncodeDense below mutates bigW, and the cached
			// contribution must stay intact for later stale rounds.
			bigW = st.bigWBuf
			copy(bigW, inputsD[0])
		} else {
			agg = inputsS[0]
		}
	} else if dense {
		tr, err := groupAllreduceDense(env, leaders, inputsD, st.bigWBuf)
		if err != nil {
			return timing, err
		}
		bigW = st.bigWBuf
		scaled := env.codec.WireTrace(tr)
		commT = cfg.Cost.TraceTime(topo, scaled)
		timing.bytes += traceBytes(scaled)
	} else {
		tr, err := groupAllreduce(env, leaders, commRingSparse, nil, inputsS, st.aggS)
		if err != nil {
			return timing, err
		}
		agg = st.aggS
		tr = env.codec.WireTrace(tr)
		commT = cfg.Cost.TraceTime(topo, tr)
		timing.bytes += traceBytes(tr)
	}
	ringEnd := ringStart + commT
	st.lastRingEnd = ringEnd

	// Leaders hold W after the ring; they apply the z-update — averaging
	// over the surviving workers — and fan the thresholded z to their
	// fresh workers.
	contributors := env.members.LiveCount()
	var zDense []float64
	var zSparse *sparse.Vector
	if dense {
		env.codec.EncodeDense(bigW)
		zDense = make([]float64, env.dim)
		solver.ZUpdateL1(zDense, bigW, cfg.Lambda, cfg.Rho, contributors)
		env.codec.EncodeDense(zDense)
	} else {
		zSparse = zFromW(agg, cfg.Lambda, cfg.Rho, contributors)
		zDense = zSparse.ToDense()
	}

	calSum, commSum := 0.0, 0.0
	applied := 0
	for _, n := range freshNodes {
		p := st.clocks[n].pending
		var bc collective.Trace
		if dense {
			bc = denseFanTrace(p.ranks, p.ranks[0], env.codec.ZMsgBytes(vec.CountNonzero(zDense)), false)
		} else {
			bc = intraBcastTrace(p.ranks, p.ranks[0], zSparse.NNZ())
		}
		timing.bytes += traceBytes(bc)
		end := ringEnd + cfg.Cost.TraceTime(topo, bc)
		for _, c := range p.cals {
			calSum += c
		}
		applyNodeZ(env, cfg, p, zDense, zSparse, end, &commSum, &applied)
		st.clocks[n].pending = nil
		st.clocks[n].staleness = 0
		if dense {
			st.pendD[n] = nil
		} else {
			st.pendS[n] = nil
		}
	}
	bumpStale(st.clocks)
	if applied > 0 {
		timing.cal = calSum / float64(applied)
		timing.comm = commSum / float64(applied)
	}
	return timing, nil
}

// launchNodeDense is the dense-codec counterpart of launchNodeSparse: the
// node's w contributions are summed densely, rounded by the codec, and
// fanned to the Leader as fixed-size dense messages over the bus.
func (st *ringStrategy) launchNodeDense(cfg Config, n, iter int) []float64 {
	env := st.env
	topo := cfg.Topo
	ranks := env.liveWorkersOf(topo, n)
	sub := make([]*worker, len(ranks))
	for i, r := range ranks {
		sub[i] = env.ws[r]
	}
	// The pending batch retains cals past this round; copy out of the
	// pool's scratch.
	cals := append([]float64(nil), env.pool.run(cfg, sub, iter)...)
	starts := make([]float64, len(ranks))
	vs := make([]*sparse.Vector, len(ranks))
	sum := make([]float64, env.dim)
	ready := 0.0
	for i, w := range sub {
		starts[i] = w.clock
		ready = maxf(ready, w.clock+cals[i])
		// Retain the raw sparse contribution: reconcile re-sums and
		// re-encodes from these when a member dies in flight.
		vs[i] = w.wSparse(cfg.Rho)
		vs[i].AddIntoDense(sum, 1)
	}
	env.codec.EncodeDense(sum)
	tr := denseFanTrace(ranks, ranks[0], env.codec.DenseMsgBytes(env.dim), true)
	st.clocks[n].pending = &pendingCompute{
		finish:      ready + cfg.Cost.TraceTime(topo, tr),
		ranks:       ranks,
		starts:      starts,
		cals:        cals,
		vs:          vs,
		launchIter:  iter,
		launchBytes: traceBytes(tr),
	}
	return sum
}
