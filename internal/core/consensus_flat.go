package core

import (
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
)

// flatStrategy is the cluster-wide PSR-Allreduce (§4.2 without the WLG
// framework): every worker is a peer in a single sparse collective; the
// recursion is exact consensus every round. Under BSP the collective
// starts when the slowest worker is ready. Under SSP/async — compositions
// the monolithic variant could not express — the collective runs over
// every worker's cached contribution as soon as the quorum finishes, and
// only fresh workers receive (and pay for) the result.
//
// This strategy is the repo's steady-state allocation benchmark: every
// per-round buffer below is owned by the strategy and reused, so a warmed
// BSP round touches no heap (see DESIGN.md "Memory model & buffer
// ownership").
type flatStrategy struct {
	env      *strategyEnv
	clocks   []sspClock // per worker
	wCur     []*sparse.Vector
	pendingW []*sparse.Vector
	// lastEnd serializes consecutive collectives: a new round cannot start
	// before the previous one's result has been delivered.
	lastEnd float64

	// Per-worker persistent storage. slots[i] backs clocks[i].pending (the
	// single-member batch plus its one-element rank/start/cal arrays);
	// wBuf[i] double-buffers the worker's encoded contribution so a new w
	// is never assembled in the vector the collective may still serve as
	// the cached (stale) input.
	slots []flatPend
	wBuf  [][2]*sparse.Vector

	// Round scratch, reused across rounds.
	idle       []int
	sub        []*worker
	finishes   []float64
	fresh      []int
	ranks      []int
	inputs     []*sparse.Vector
	agg        *sparse.Vector
	wireEvents []collective.Event
}

// flatPend is one worker's pending-compute slot: the batch struct plus the
// one-element backing arrays its slices point into.
type flatPend struct {
	p     pendingCompute
	rank  [1]int
	start [1]float64
	cal   [1]float64
}

func newFlatStrategy(env *strategyEnv) *flatStrategy {
	n := len(env.ws)
	st := &flatStrategy{
		env:      env,
		clocks:   make([]sspClock, n),
		wCur:     make([]*sparse.Vector, n),
		pendingW: make([]*sparse.Vector, n),
		slots:    make([]flatPend, n),
		wBuf:     make([][2]*sparse.Vector, n),
		agg:      new(sparse.Vector),
	}
	for i := range st.wCur {
		st.wBuf[i][0] = sparse.NewVector(env.dim, 0)
		st.wBuf[i][1] = sparse.NewVector(env.dim, 0)
		st.wCur[i] = st.wBuf[i][0]
	}
	return st
}

func (st *flatStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	ws := env.ws
	var timing iterTiming

	// Reconcile: dead or quarantined workers leave the barrier, the
	// collective, and the z-update's averaging count.
	if env.reconciles() {
		for i := range st.clocks {
			if st.clocks[i].pending != nil && !env.members.Alive(ws[i].rank) {
				st.clocks[i] = sspClock{}
				st.pendingW[i] = nil
			}
		}
	}

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
	cals := env.pool.run(cfg, sub, iter)
	for j, i := range idle {
		w := ws[i]
		// Assemble into whichever buffer the collective is NOT serving.
		nb := st.wBuf[i][0]
		if nb == st.wCur[i] {
			nb = st.wBuf[i][1]
		}
		st.pendingW[i] = w.wSparseInto(nb, cfg.Rho)
		env.encodeSparse(w.rank, st.pendingW[i])
		sl := &st.slots[i]
		sl.rank[0] = w.rank
		sl.start[0] = w.clock
		sl.cal[0] = cals[j]
		sl.p = pendingCompute{
			finish: w.clock + cals[j],
			ranks:  sl.rank[:],
			starts: sl.start[:],
			cals:   sl.cal[:],
		}
		st.clocks[i].pending = &sl.p
	}

	contributors := env.members.LiveCount()
	cutoff := sspCutoff(st.clocks, env.sync.Quorum(contributors, 1), env.sync.Delay(), &st.finishes)
	st.fresh = admitted(st.clocks, cutoff, st.fresh)
	fresh := st.fresh
	for _, i := range fresh {
		st.wCur[i] = st.pendingW[i]
	}

	// Every LIVE worker is a peer in the collective, serving its cached
	// contribution when stale.
	ranks := st.ranks[:0]
	inputs := st.inputs[:0]
	for i, w := range ws {
		if !env.members.Alive(w.rank) {
			continue
		}
		ranks = append(ranks, w.rank)
		inputs = append(inputs, st.wCur[i])
	}
	st.ranks, st.inputs = ranks, inputs
	start := maxf(cutoff, st.lastEnd)
	// The store picks the schedule: full-width PSR-Allreduce into st.agg
	// replicated, the shard-aware restricted reduction sharded.
	tr, err := env.store.allreduceW(ranks, inputs, st.agg)
	if err != nil {
		return timing, err
	}
	tr = env.codec.WireTraceInto(st.wireEvents[:0], tr)
	st.wireEvents = tr.Events
	commT := cfg.Cost.TraceTimeScratch(&env.ts, cfg.Topo, tr)
	timing.bytes += traceBytes(tr)
	end := start + commT
	st.lastEnd = end

	calSum, commSum := 0.0, 0.0
	for _, i := range fresh {
		p := st.clocks[i].pending
		env.store.applyReduced(cfg, ws[i], st.agg)
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
