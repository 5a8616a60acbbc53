package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

func nan() float64         { return math.NaN() }
func isNaN(v float64) bool { return math.IsNaN(v) }
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// worker holds one rank's private ADMM state.
//
// The subproblem is solved in the shard's *active feature subspace*: the
// columns its samples touch (sparse.CSR.CompactColumns). Off those columns
// the x-subproblem is separable with a closed-form minimiser, and all the
// consensus ever sees of them is w_j = ρ·z_j — solver's restriction doc
// states the invariant. A worker therefore stores x and y over the active
// columns only and emits ρ·z_j elsewhere (wSparseInto); the restriction is
// *exact*, and per-worker dense work scales with the shard's support, not
// the global dimension.
type worker struct {
	rank  int
	dim   int              // full model dimension
	shard *dataset.Dataset // original shard (full column space, for evaluation)

	// Active-subspace problem.
	active  []int32     // sorted original column ids the shard touches
	compact *sparse.CSR // shard remapped to columns 0..len(active)-1
	obj     *solver.LogisticProx
	xA, yA  []float64 // primal/dual over active columns
	zA      []float64 // z at the active columns, TRON's Z (see setView)

	// Consensus view: zSparse is the iterate restricted to the rank's
	// subscribed blocks under the run's shard map (the whole dimension under
	// the replicated one-block full map), sparse and in global coordinates.
	// It and zA are the only copies of z on this rank: nothing the rank
	// keeps is as wide as its subscription.
	smap    *shard.Map
	zSparse *sparse.Vector

	// clock is the worker's virtual time; calTotal accumulates compute.
	clock    float64
	calTotal float64
	lastCal  float64
	tron     solver.Workspace

	// poisonNaN makes the next xUpdate emit a NaN iterate — the engine's
	// FaultPlan.NaNAtIteration hook, modeling a numerically blown-up local
	// solve. Consumed on use so a post-rollback replay of the iteration is
	// clean.
	poisonNaN bool

	// zOwn double-buffers the sparse consensus view (see nextZ and DESIGN.md
	// "Memory model & buffer ownership").
	zOwn    [2]sparse.Vector
	zOwnIdx int
}

// newWorkers shards the dataset and initializes per-rank solver state
// (x=y=z=0, paper Algorithm 1 line 2). The consensus view is not set here
// — the run's stateStore owns placement and calls initStore on every
// worker before the first iteration.
func newWorkers(cfg Config, train *dataset.Dataset) []*worker {
	shards := train.Shard(cfg.Topo.Size())
	ws := make([]*worker, len(shards))
	for i, sh := range shards {
		ws[i] = newWorker(cfg, i, sh)
	}
	return ws
}

// newWorker builds rank's solver state over its shard, which keeps the
// training set's full column space.
func newWorker(cfg Config, rank int, sh *dataset.Dataset) *worker {
	w := &worker{rank: rank, dim: sh.Dim(), shard: sh}
	w.buildActive()
	w.obj = solver.NewLogisticProx(w.compact, sh.Labels, cfg.Rho, w.yA, w.zA)
	return w
}

// initStore sets the run's shard map and starts the consensus view at
// z = 0.
func (w *worker) initStore(m *shard.Map) {
	w.smap = m
	w.setView(w.nextZ())
}

// nextZ flips the worker-private double buffer and returns the emptied side
// to build the next sparse consensus view in. The vector w.zSparse points
// at is never the one returned — the last round's wSparseInto merge may still
// be comparing against it — and because zOwn is worker-private it can never
// alias a strategy-shared z vector.
func (w *worker) nextZ() *sparse.Vector {
	nb := &w.zOwn[w.zOwnIdx]
	w.zOwnIdx = 1 - w.zOwnIdx
	nb.Reset(w.dim)
	return nb
}

// residentBytes is the rank's consensus-state footprint: the active-subspace
// x, y and z arrays plus the view's nonzeros (an int32 index and a float64
// value each).
func (w *worker) residentBytes() int64 {
	return 8*int64(len(w.xA)+len(w.yA)+len(w.zA)) + 12*int64(w.zSparse.NNZ())
}

// buildActive computes the shard's active column set and the remapped CSR.
func (w *worker) buildActive() {
	w.active, w.compact = w.shard.X.CompactColumns()
	w.xA = make([]float64, len(w.active))
	w.yA = make([]float64, len(w.active))
	w.zA = make([]float64, len(w.active))
}

// xUpdate solves the local subproblem (eq. 4) with TRON over the active
// subspace and returns the deterministic virtual compute time, scaled by
// the straggler and jitter factors for (iter, rank).
func (w *worker) xUpdate(cfg Config, iter int) float64 {
	var res solver.TronResult
	if len(w.active) > 0 {
		res = solver.TRONWorkspace(w.obj, w.xA, cfg.Tron, &w.tron)
	}
	if w.poisonNaN {
		w.poisonNaN = false
		if len(w.xA) > 0 {
			w.xA[0] = math.NaN()
		}
	}
	units := simnet.WorkUnits(res.CGIters, res.FunEvals, w.shard.NNZ(), len(w.active))
	t := cfg.Cost.ComputeTime(units)
	node := cfg.Topo.NodeOf(w.rank)
	t *= cfg.Stragglers.NodeFactor(iter, node)
	t *= cfg.Jitter.Factor(iter, w.rank)
	t += cfg.Stragglers.NodeDelay(iter, node)
	w.lastCal = t
	w.calTotal += t
	return t
}

// wSparseInto assembles w_i = y_i + ρ·x_i (eq. 8) as a sparse vector in
// out (emptied first, backing arrays reused): the active columns carry
// y_A + ρ·x_A; off-active columns carry ρ·z_j on the consensus support (see
// the worker doc comment). Exact zeros are skipped.
func (w *worker) wSparseInto(out *sparse.Vector, rho float64) *sparse.Vector {
	out.Reset(w.dim)
	ai, zi := 0, 0
	for ai < len(w.active) || zi < w.zSparse.NNZ() {
		switch {
		case zi >= w.zSparse.NNZ() || (ai < len(w.active) && w.active[ai] < w.zSparse.Index[zi]):
			if v := w.yA[ai] + rho*w.xA[ai]; v != 0 {
				out.Index = append(out.Index, w.active[ai])
				out.Value = append(out.Value, v)
			}
			ai++
		case ai >= len(w.active) || w.zSparse.Index[zi] < w.active[ai]:
			if v := rho * w.zSparse.Value[zi]; v != 0 {
				out.Index = append(out.Index, w.zSparse.Index[zi])
				out.Value = append(out.Value, v)
			}
			zi++
		default: // same column: the active coordinates already include the z pull
			if v := w.yA[ai] + rho*w.xA[ai]; v != 0 {
				out.Index = append(out.Index, w.active[ai])
				out.Value = append(out.Value, v)
			}
			ai++
			zi++
		}
	}
	return out
}

// sub returns subscribed block i's global range [lo, hi).
func (w *worker) sub(i int) (lo, hi int) {
	c := w.smap.Part.Chunk(int(w.smap.Subs[w.rank][i]))
	return c.Lo, c.Hi
}

// setView makes nb the consensus view and refreshes zA from it: one merge of
// the sorted view against the sorted active columns writes the view's value
// where it has an entry and +0 where it has none — every value a dense z
// holds there, bit for bit.
func (w *worker) setView(nb *sparse.Vector) {
	w.zSparse = nb
	k := 0
	for i, c := range w.active {
		for k < len(nb.Index) && nb.Index[k] < c {
			k++
		}
		if k < len(nb.Index) && nb.Index[k] == c {
			w.zA[i] = nb.Value[k]
		} else {
			w.zA[i] = 0
		}
	}
}

// keepZ retains the subscribed blocks of a consensus iterate given in
// global coordinates as the new view.
func (w *worker) keepZ(z *sparse.Vector) {
	nb := w.nextZ()
	for i := range w.smap.Subs[w.rank] {
		from, to := z.Range(w.sub(i))
		nb.Index = append(nb.Index, z.Index[from:to]...)
		nb.Value = append(nb.Value, z.Value[from:to]...)
	}
	w.setView(nb)
}

// applyZ consumes the new consensus iterate — the thresholded z every
// strategy forms with zFromWBlocks, in global coordinates — and performs
// the dual update (eq. 6) over the active subspace; no off-active dual is
// stored (see the worker doc comment).
func (w *worker) applyZ(cfg Config, z *sparse.Vector) {
	w.keepZ(z)
	w.dualUpdate(cfg.Rho)
}

// dualUpdate performs y ← y + ρ(x − z) (eq. 6) over the active subspace.
func (w *worker) dualUpdate(rho float64) {
	for i, z := range w.zA {
		w.yA[i] += rho * (w.xA[i] - z)
	}
}

// rejoin re-admits a revived rank at an iteration boundary. The consensus
// view warm-starts from the cluster's current iterate, restricted to the
// rank's subscription — the rejoiner's first x-update then solves against
// live consensus, not the stale z it died holding — while xA/yA keep their
// frozen pre-death values (any restart point is valid for ADMM, and the
// stale primal/dual pair is closer to the optimum than zero). The clock
// jump is supplied by the engine (the live maximum).
func (w *worker) rejoin(z *sparse.Vector, clock float64) {
	w.keepZ(z)
	if clock > w.clock {
		w.clock = clock
	}
}

// localLoss evaluates the shard's data-fit term Σ log(1+exp(−b·aᵀz)) at a
// full-dimension point.
func (w *worker) localLoss(z []float64) float64 {
	m := w.shard.X
	var loss float64
	for r := 0; r < m.NRows; r++ {
		loss += solver.LogLoss(w.shard.Labels[r] * m.RowDot(r, z))
	}
	return loss
}

// computePool is the run's persistent x-update executor: the caller and
// GOMAXPROCS−1 helper goroutines, fixed at construction, claim worker
// indices from one atomic counter, so a round costs no goroutine spawns,
// no allocation and, on one P, no hand-off at all: the caller solves every
// subproblem itself. The job fields (cfg/iter/ws/times) are plain writes
// made visible by the wake sends; the pool is driven only from the single
// strategy goroutine, and wg.Wait orders the helpers' writes before the
// caller reads times. A GOMAXPROCS change after construction changes only
// how many goroutines share the counter, never what gets solved.
type computePool struct {
	cfg     Config
	iter    int
	ws      []*worker
	times   []float64
	next    atomic.Int64
	helpers int
	wake    chan struct{}
	wg      sync.WaitGroup
}

func newComputePool() *computePool {
	p := &computePool{helpers: runtime.GOMAXPROCS(0) - 1, wake: make(chan struct{})}
	for range p.helpers {
		go p.serve()
	}
	return p
}

func (p *computePool) serve() {
	for range p.wake {
		p.solve()
		p.wg.Done()
	}
}

// solve claims indices until none is left. times[i] is written per index,
// whoever solves it.
func (p *computePool) solve() {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.ws) {
			return
		}
		p.times[i] = p.ws[i].xUpdate(p.cfg, p.iter)
	}
}

// run executes every listed worker's xUpdate and returns the compute times
// indexed as the input. The returned slice is pool-owned scratch, valid
// only until the next run — callers that retain it copy.
func (p *computePool) run(cfg Config, ws []*worker, iter int) []float64 {
	if cap(p.times) < len(ws) {
		p.times = make([]float64, len(ws))
	}
	p.times = p.times[:len(ws)]
	p.cfg, p.iter, p.ws = cfg, iter, ws
	p.next.Store(0)
	h := max(min(p.helpers, len(ws)-1), 0)
	p.wg.Add(h)
	for range h {
		p.wake <- struct{}{}
	}
	p.solve()
	p.wg.Wait()
	return p.times
}

func (p *computePool) close() { close(p.wake) }

// globalObjective evaluates the paper's eq. 17 at point z over all shards:
// Σ_i f_i(z) + λ‖z‖₁.
func globalObjective(cfg Config, ws []*worker, z []float64) float64 {
	var loss float64
	for _, w := range ws {
		loss += w.localLoss(z)
	}
	return loss + cfg.Lambda*vec.Nrm1(z)
}
