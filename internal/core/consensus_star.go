package core

import (
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
)

// starStrategy is the master–worker topology: every admitted worker ships
// its (x_i, y_i) to the master colocated with rank 0, which computes z
// from ALL workers' cached contributions and returns it. The master's
// links serialize both directions — the scalability wall §4.1 starts from.
// Under BSP this is classic GC-ADMM (full barrier, every worker fresh
// every round); under SSP it is AD-ADMM's worker-granular partial barrier
// (Zhang & Kwok's async consensus update: stale workers' previous w's
// stay in the sum).
type starStrategy struct {
	env      *strategyEnv
	clocks   []sspClock // per worker
	wCur     []*sparse.Vector
	pendingW []*sparse.Vector
	// masterFreeAt serializes consecutive rounds through the master's NIC.
	masterFreeAt float64
	// Reusable round scratch (barrier bookkeeping).
	finishes []float64
	fresh    []int
	idle     []int
	sub      []*worker
	// Master-side combine: cws carries the combine scratch (the star never
	// runs a wire collective through it), combined/combineSrcs are the
	// combine's destination and source list.
	cws         collective.Workspace
	combined    *sparse.Vector
	combineSrcs []*sparse.Vector
}

func newStarStrategy(env *strategyEnv) *starStrategy {
	st := &starStrategy{
		env:      env,
		clocks:   make([]sspClock, len(env.ws)),
		wCur:     make([]*sparse.Vector, len(env.ws)),
		pendingW: make([]*sparse.Vector, len(env.ws)),
	}
	for i := range st.wCur {
		st.wCur[i] = sparse.NewVector(env.dim, 0)
	}
	return st
}

func (st *starStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	ws := env.ws
	topo := cfg.Topo
	var timing iterTiming

	// Reconcile: dead or quarantined workers leave the barrier and the
	// sum. The star has no fabric traffic, so deaths only ever arrive via
	// the engine's scheduled kills; the master role migrates to the first
	// live rank.
	if env.reconciles() {
		for i := range st.clocks {
			if st.clocks[i].pending != nil && !env.members.Alive(ws[i].rank) {
				st.clocks[i] = sspClock{}
				st.pendingW[i] = nil
			}
		}
	}

	// Launch compute on every idle live worker.
	idle := st.idle[:0]
	for i := range st.clocks {
		if st.clocks[i].pending == nil && env.members.Alive(ws[i].rank) {
			idle = append(idle, i)
		}
	}
	st.idle = idle
	sub := st.sub[:0]
	for _, i := range idle {
		sub = append(sub, ws[i])
	}
	st.sub = sub
	// The per-batch cal slices below copy the value out, so the pool's
	// scratch is safe to use directly.
	cals := env.pool.run(cfg, sub, iter)
	for j, i := range idle {
		w := ws[i]
		st.pendingW[i] = w.wSparse(cfg.Rho)
		env.encodeSparse(w.rank, st.pendingW[i])
		st.clocks[i].pending = &pendingCompute{
			finish: w.clock + cals[j],
			ranks:  []int{w.rank},
			starts: []float64{w.clock},
			cals:   []float64{cals[j]},
		}
	}

	contributors := env.members.LiveCount()
	cutoff := sspCutoff(st.clocks, env.sync.Quorum(contributors, 1), env.sync.Delay(), &st.finishes)
	st.fresh = admitted(st.clocks, cutoff, st.fresh)
	fresh := st.fresh
	for _, i := range fresh {
		st.wCur[i] = st.pendingW[i]
	}

	// The master — the first live rank — aggregates every live worker's
	// cached contribution (fresh or stale), then returns z to the fresh
	// workers. Only fresh workers pay wire time this round.
	master := env.members.FirstLive(allRanks(len(ws)))
	gatherStart := maxf(cutoff, st.masterFreeAt)
	tr := env.codec.WireTrace(starGatherTrace(master, fresh, env.dim))
	commT := cfg.Cost.TraceTime(topo, tr)
	timing.bytes += traceBytes(tr)
	end := gatherStart + commT
	st.masterFreeAt = end

	// The master is the star's combine point: it already sees every live
	// contribution, so the aggregator — the sum, or the trimmed-mean/median
	// center scaled ×contributors — applies here, and the z-update divides
	// the contributor count back out either way.
	srcs := st.combineSrcs[:0]
	for i, wc := range st.wCur {
		if env.members.Alive(ws[i].rank) {
			srcs = append(srcs, wc)
		}
	}
	st.combineSrcs = srcs
	st.combined = st.cws.CombineSparse(env.agg, env.dim, srcs, st.combined)
	// Each block averages over its live subscribers (the live count under
	// the replicated one-block map); workers retain their subscribed blocks.
	z := env.store.zFromW(st.combined, cfg)
	env.codec.EncodeSparse(z)

	calSum, commSum := 0.0, 0.0
	for _, i := range fresh {
		p := st.clocks[i].pending
		ws[i].applyZ(cfg, z)
		calSum += p.cals[0]
		commSum += end - p.starts[0] - p.cals[0]
		ws[i].clock = end
		st.clocks[i].pending = nil
		st.clocks[i].staleness = 0
		st.pendingW[i] = nil
	}
	bumpStale(st.clocks)
	if len(fresh) > 0 {
		timing.cal = calSum / float64(len(fresh))
		timing.comm = commSum / float64(len(fresh))
	}
	return timing, nil
}
