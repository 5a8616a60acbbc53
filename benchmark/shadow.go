package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/watchdog"
	"psrahgadmm/internal/wire"
)

// The shadow round replays an engine workload's ADMM iterations out of the
// layers' public functions, on the same shards, one span around each call.
// It exists because nothing inside core.Run can be timed from outside: the
// replay does the same arithmetic in the same order — the BSP workloads'
// final z is checked against core.Run's — so the time each layer takes in
// the replay is the time it takes in the engine, give or take the engine's
// own bookkeeping, which is reported as the difference.
//
// Like the engine's workers, each rank solves in its shard's active
// feature subspace (off it, x = z and y = 0 in closed form).

// shadowRank is one rank's ADMM state.
type shadowRank struct {
	rank     int
	active   []int32 // sorted columns the shard touches
	obj      *solver.LogisticProx
	tron     solver.Workspace
	shardNNZ int
	xA, yA   []float64
	zA, wA   []float64
	contrib  *sparse.Vector
	state    *exchange.State // top-k error feedback, nil for stateless codecs
	// z and zs are the rank's consensus view, dense and sparse. Under the
	// tree every rank receives the same thresholded z and they share one;
	// under flat PSR every rank derives its own from W, as the engine does.
	z   []float64
	zs  *sparse.Vector
	cal float64 // virtual compute time of the last x-update
}

type shadow struct {
	w     workload
	p     *problem
	cfg   core.Config
	cost  simnet.CostModel
	tree  bool
	rec   *recorder
	codec exchange.Codec
	ranks []*shadowRank
	dim   int

	fab  *transport.ChanFabric
	wss  []collective.Workspace
	outs []*sparse.Vector
	seq  int32

	acc     *sparse.Accumulator
	nodeSum []*sparse.Vector
	wDense  []float64 // contribution assembly scratch
	bigW    []float64

	smap   *shard.Map // sharded state only
	offs   []int
	counts []int

	screen *watchdog.Screen
	store  *checkpoint.DirStore

	// Counts taken at the span boundaries.
	bytesPerIter   []int64
	collectiveCPU  float64
	collectiveMsgs int64
	traceBytes     int64
	cgIters        int64
	funEvals       int64
	contribs       int64
	fromDenseCalls int64
	preEncodeNNZ   int64
	encodedNNZ     int64
	ckptBytes      int64
	ckptSaves      int64
}

func newShadow(w workload, p *problem, tmp string, rec *recorder) (*shadow, error) {
	v, ok := core.Lookup(w.cfg.Algorithm)
	if !ok {
		return nil, fmt.Errorf("shadow: unknown algorithm %q", w.cfg.Algorithm)
	}
	if v.Consensus != core.ConsensusTree && v.Consensus != core.ConsensusFlat {
		return nil, fmt.Errorf("shadow: no replay for %s consensus", v.Consensus)
	}
	codec, err := exchange.For(v.Codec)
	if err != nil {
		return nil, err
	}
	s := &shadow{
		w: w, p: p, cfg: w.cfg, cost: simnet.Tianhe2Like(), rec: rec, codec: codec,
		tree: v.Consensus == core.ConsensusTree, dim: p.train.Dim(),
	}
	n := s.cfg.Topo.Size()
	s.fab = transport.NewChanFabricZeroCopy(n)
	s.wss = make([]collective.Workspace, n)
	s.outs = make([]*sparse.Vector, n)
	s.acc = sparse.NewAccumulator(s.dim)
	s.nodeSum = make([]*sparse.Vector, s.cfg.Topo.Nodes)
	s.wDense = make([]float64, s.dim)
	s.screen = watchdog.NewScreen(s.cfg.Screen, n)
	if w.checkpoint {
		if s.store, err = checkpoint.NewDirStore(filepath.Join(tmp, "shadow-ckpt"), "shadow.psck"); err != nil {
			return nil, err
		}
	}

	shards := p.train.Shard(n)
	actives := make([][]int32, n)
	var sharedZ []float64
	var sharedZS *sparse.Vector
	if s.tree {
		sharedZ, sharedZS = make([]float64, s.dim), sparse.NewVector(s.dim, 0)
	}
	for r := 0; r < n; r++ {
		active, compact := activeSubspace(shards[r].X)
		k := len(active)
		sr := &shadowRank{
			rank: r, active: active, shardNNZ: shards[r].NNZ(),
			xA: make([]float64, k), yA: make([]float64, k), zA: make([]float64, k), wA: make([]float64, k),
			contrib: sparse.NewVector(s.dim, 0), z: sharedZ, zs: sharedZS,
		}
		if !s.tree {
			sr.z, sr.zs = make([]float64, s.dim), sparse.NewVector(s.dim, 0)
		}
		sr.obj = solver.NewLogisticProx(compact, shards[r].Labels, s.cfg.Rho, sr.yA, sr.zA)
		if exchange.IsTopK(v.Codec) {
			sr.state = exchange.NewState(v.Codec, s.cfg.CodecBudgetBytes)
			if s.cfg.CodecTopK > 0 {
				sr.state.K, sr.state.KMin = s.cfg.CodecTopK, s.cfg.CodecTopK
			}
		}
		s.ranks = append(s.ranks, sr)
		s.outs[r] = new(sparse.Vector)
		actives[r] = active
	}
	if v.Sharded {
		if !s.tree {
			return nil, fmt.Errorf("shadow: no replay for sharded flat consensus")
		}
		blocks := s.cfg.ShardBlocks
		if blocks <= 0 {
			blocks = n
		}
		part := shard.NewPartition(s.dim, blocks)
		s.smap = shard.NewMap(part, actives)
		s.offs = make([]int, part.Blocks+1)
		for b := 0; b < part.Blocks; b++ {
			s.offs[b] = part.Chunk(b).Lo
		}
		s.offs[part.Blocks] = s.dim
		s.counts = s.smap.LiveCounts(nil, func(int) bool { return true })
	}
	return s, nil
}

func (s *shadow) close() { s.fab.Close() }

// activeSubspace returns the sorted columns m touches and m remapped onto
// them.
func activeSubspace(m *sparse.CSR) ([]int32, *sparse.CSR) {
	seen := make(map[int32]struct{})
	for _, c := range m.ColIdx {
		seen[c] = struct{}{}
	}
	active := make([]int32, 0, len(seen))
	for c := range seen {
		active = append(active, c)
	}
	sort.Slice(active, func(a, b int) bool { return active[a] < active[b] })
	remap := make(map[int32]int32, len(active))
	for i, c := range active {
		remap[c] = int32(i)
	}
	compact := &sparse.CSR{NRows: m.NRows, NCols: len(active), RowPtr: m.RowPtr, ColIdx: make([]int32, len(m.ColIdx)), Val: m.Val}
	for k, c := range m.ColIdx {
		compact.ColIdx[k] = remap[c]
	}
	return active, compact
}

// local is one rank's share of an iteration before anything is exchanged:
// x-update, w = y + ρx, compression to a sparse contribution, codec.
func (s *shadow) local(r *shadowRank, iter, parent int) {
	rho := s.cfg.Rho
	for i, c := range r.active {
		r.zA[i] = r.z[c]
	}
	sp := s.rec.begin("solver.tron", parent, r.rank, iter)
	var res solver.TronResult
	if len(r.active) > 0 {
		res = solver.TRONWorkspace(r.obj, r.xA, s.cfg.Tron, &r.tron)
	}
	s.rec.end(sp)
	s.cgIters += int64(res.CGIters)
	s.funEvals += int64(res.FunEvals)
	r.cal = s.cost.ComputeTime(simnet.WorkUnits(res.CGIters, res.FunEvals, r.shardNNZ, len(r.active)))

	sp = s.rec.begin("solver.wlocal", parent, r.rank, iter)
	solver.WLocal(r.wA, r.yA, r.xA, rho)
	s.rec.end(sp)

	// Off the active set w_j = ρ·z_j on the consensus support the rank
	// holds: all of it replicated, its subscribed blocks sharded.
	s.eachHeld(r, func(from, to int) {
		for k := from; k < to; k++ {
			s.wDense[r.zs.Index[k]] = rho * r.zs.Value[k]
		}
	})
	for i, c := range r.active {
		s.wDense[c] = r.wA[i]
	}
	sp = s.rec.begin("sparse.from_dense", parent, r.rank, iter)
	sparse.FromDenseInto(r.contrib, s.wDense)
	s.rec.end(sp)
	s.fromDenseCalls++
	s.eachHeld(r, func(from, to int) {
		for k := from; k < to; k++ {
			s.wDense[r.zs.Index[k]] = 0
		}
	})
	for _, c := range r.active {
		s.wDense[c] = 0
	}
	s.contribs++
	s.preEncodeNNZ += int64(r.contrib.NNZ())

	sp = s.rec.begin("exchange.encode", parent, r.rank, iter)
	switch {
	case r.state != nil:
		r.state.Encode(r.contrib)
	case s.smap != nil:
		exchange.EncodeSparseBlocks(s.codec, r.contrib, s.offs)
	default:
		s.codec.EncodeSparse(r.contrib)
	}
	s.rec.end(sp)
	s.encodedNNZ += int64(r.contrib.NNZ())
	if s.screen != nil {
		sp = s.rec.begin("watchdog.screen", parent, r.rank, iter)
		s.screen.ObserveSparse(r.rank, r.contrib)
		s.rec.end(sp)
	}
}

// eachHeld calls f with the storage ranges of r's sparse consensus view
// that the rank actually holds.
func (s *shadow) eachHeld(r *shadowRank, f func(from, to int)) {
	if s.smap == nil {
		f(0, r.zs.NNZ())
		return
	}
	for _, b := range s.smap.Subs[r.rank] {
		c := s.smap.Part.Chunk(int(b))
		f(r.zs.Range(c.Lo, c.Hi))
	}
}

// reduceInputs returns the collective's members and their inputs: every
// rank's contribution under flat PSR; under the tree, each node's workers
// are summed at their Leader first and the Leaders enter in the order the
// engine's Group Generator would see them arrive — by the virtual time
// their partial is ready, node id breaking ties. The order decides which
// Leader owns which chunk, and so the bytes; the replay has to get it
// right for its byte count to match the engine's.
func (s *shadow) reduceInputs(iter, parent int) (members []int, inputs []*sparse.Vector, bytes int64) {
	topo := s.cfg.Topo
	if !s.tree {
		for _, r := range s.ranks {
			members = append(members, r.rank)
			inputs = append(inputs, r.contrib)
		}
		return members, inputs, 0
	}
	ready := make([]float64, topo.Nodes)
	for n := 0; n < topo.Nodes; n++ {
		workers := topo.WorkersOf(n)
		sp := s.rec.begin("sparse.accumulate", parent, workers[0], iter)
		fanIn := collective.Trace{Steps: 1}
		for i, r := range workers {
			c := s.ranks[r].contrib
			s.acc.Add(c)
			if s.ranks[r].cal > ready[n] {
				ready[n] = s.ranks[r].cal
			}
			if i > 0 {
				fanIn.Events = append(fanIn.Events, collective.Event{From: r, To: workers[0], Bytes: 8 + wire.SparseEntryBytes*c.NNZ()})
			}
		}
		s.nodeSum[n] = s.acc.SumInto(s.nodeSum[n])
		s.rec.end(sp)
		fanIn = s.codec.WireTrace(fanIn)
		bytes += int64(fanIn.TotalBytes())
		ready[n] += s.cost.TraceTime(topo, fanIn)
	}
	order := make([]int, topo.Nodes)
	for n := range order {
		order[n] = n
	}
	sort.SliceStable(order, func(a, b int) bool { return ready[order[a]] < ready[order[b]] })
	for _, n := range order {
		members = append(members, topo.WorkersOf(n)[0])
		inputs = append(inputs, s.nodeSum[n])
	}
	// Each Leader's request to the Group Generator and its reply.
	bytes += int64(topo.Nodes * ggRequestBytes * 2)
	return members, inputs, bytes
}

// ggRequestBytes is what the engine charges for a Leader's grouping
// request and for the reply (core's constant of the same name).
const ggRequestBytes = 4 + 8*2

// allreduce runs the real PSR-Allreduce, one goroutine per member over the
// zero-copy channel fabric, as the engine's crew does.
func (s *shadow) allreduce(members []int, inputs []*sparse.Vector, iter, parent int) (int64, error) {
	g := collective.Group{Ranks: members}
	tagBase := int32(1)<<16 + s.seq*8
	s.seq++
	errs := make([]error, len(members))
	bytes := make([]int64, len(members))
	msgs := make([]int64, len(members))
	cpu0 := cpuSeconds()
	sp := s.rec.begin("collective.allreduce", parent, -1, iter)
	var wg sync.WaitGroup
	for i, r := range members {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			msp := s.rec.begin("collective.member", sp, r, iter)
			tr, err := s.wss[r].PSRAllreduceSparse(s.fab.Endpoint(r), g, tagBase, inputs[i], s.outs[r])
			s.rec.end(msp)
			// The trace aliases workspace scratch: count it now.
			tr = s.codec.WireTrace(tr)
			errs[i], bytes[i], msgs[i] = err, int64(tr.TotalBytes()), int64(len(tr.Events))
		}(i, r)
	}
	wg.Wait()
	s.rec.end(sp)
	s.collectiveCPU += cpuSeconds() - cpu0
	var total int64
	for i := range members {
		if errs[i] != nil {
			return 0, fmt.Errorf("shadow: allreduce member %d: %w", members[i], errs[i])
		}
		total += bytes[i]
		s.collectiveMsgs += msgs[i]
	}
	s.traceBytes += total
	return total, nil
}

// apply is the z-update and the dual update. Under the tree z is computed
// once and travels; under flat PSR every rank holds W and thresholds it
// itself — 64 dense applies on engine-wide-64, as in the engine.
func (s *shadow) apply(root *sparse.Vector, iter, parent int) (bytes int64) {
	topo := s.cfg.Topo
	lambda, rho, n := s.cfg.Lambda, s.cfg.Rho, len(s.ranks)
	sp := s.rec.begin("sparse.to_dense", parent, -1, iter)
	s.bigW = root.ToDenseInto(s.bigW)
	s.rec.end(sp)
	for i, r := range s.ranks {
		if !s.tree || i == 0 {
			sp = s.rec.begin("solver.zupdate", parent, r.rank, iter)
			if s.smap != nil {
				solver.ZUpdateL1Blocks(r.z, s.bigW, lambda, rho, s.offs, s.counts)
			} else {
				solver.ZUpdateL1(r.z, s.bigW, lambda, rho, n)
			}
			s.rec.end(sp)
			sp = s.rec.begin("sparse.from_dense", parent, r.rank, iter)
			sparse.FromDenseInto(r.zs, r.z)
			s.rec.end(sp)
			s.fromDenseCalls++
		}
		for k, c := range r.active {
			r.zA[k] = r.z[c]
		}
		sp = s.rec.begin("solver.dual", parent, r.rank, iter)
		solver.DualUpdate(r.yA, r.xA, r.zA, rho)
		s.rec.end(sp)
	}
	if s.tree {
		// Each Leader broadcasts the thresholded z to its node.
		bytes = int64(topo.Nodes * (topo.WorkersPerNode - 1) * (8 + wire.SparseEntryBytes*s.ranks[0].zs.NNZ()))
	}
	return bytes
}

// guards replays what engine-guarded-16 adds to an iteration: the
// non-finite scan of every rank's iterates and, every tenth iteration, a
// snapshot encoded and saved with fsync.
func (s *shadow) guards(iter, parent int) error {
	if !s.cfg.Watchdog.Enabled {
		return nil
	}
	names := []string{"x", "y", "z"}
	for _, r := range s.ranks {
		sp := s.rec.begin("watchdog.scan", parent, r.rank, iter)
		bad := watchdog.ScanNonFinite(names, r.xA, r.yA, r.z)
		s.rec.end(sp)
		if bad != "" {
			return fmt.Errorf("shadow: non-finite iterate on rank %d: %s", r.rank, bad)
		}
	}
	if s.store == nil || (iter+1)%10 != 0 {
		return nil
	}
	snap := &exchange.Snapshot{
		Algorithm: string(s.cfg.Algorithm), Iter: int32(iter + 1), Rho: s.cfg.Rho,
		ZPrev: append([]float64(nil), s.ranks[0].z...), Strategy: []float64{0},
	}
	for _, r := range s.ranks {
		snap.Workers = append(snap.Workers, exchange.WorkerSnap{
			Rank: int32(r.rank),
			XA:   append([]float64(nil), r.xA...), YA: append([]float64(nil), r.yA...),
			ZDense: append([]float64(nil), r.z...),
			ZIdx:   append([]int32(nil), r.zs.Index...), ZVal: append([]float64(nil), r.zs.Value...),
		})
	}
	sp := s.rec.begin("checkpoint.encode", parent, -1, iter)
	blob := exchange.EncodeSnapshot(snap)
	s.rec.end(sp)
	sp = s.rec.begin("checkpoint.save", parent, -1, iter)
	err := s.store.Save(blob)
	s.rec.end(sp)
	s.ckptBytes += int64(len(blob))
	s.ckptSaves++
	return err
}

func (s *shadow) iterate(iter int) error {
	root := s.rec.begin("shadow.iteration", -1, -1, iter)
	defer s.rec.end(root)
	for _, r := range s.ranks {
		s.local(r, iter, root)
	}
	members, inputs, bytes := s.reduceInputs(iter, root)
	arBytes, err := s.allreduce(members, inputs, iter, root)
	if err != nil {
		return err
	}
	bytes += arBytes + s.apply(s.outs[members[0]], iter, root)
	s.bytesPerIter = append(s.bytesPerIter, bytes)
	return s.guards(iter, root)
}

// z returns the consensus iterate the engine would report.
func (s *shadow) z() []float64 { return s.ranks[0].z }

// fidelity holds the replay to the engine's run: same bytes every
// iteration, same final z to a relative 1e-6, and the target first met at
// the same K*. prevErr is the replay's relative error one iteration before
// K*. A replay that fails this did different work, and its layer times
// describe nothing.
func (s *shadow) fidelity(res *core.Result, prevErr float64) error {
	k := len(res.History)
	for i := 0; i < k; i++ {
		if s.bytesPerIter[i] != res.History[i].Bytes {
			return fmt.Errorf("shadow round diverged at iteration %d: it moved %d bytes where core.Run moved %d — the codec, accumulate or allreduce call of that iteration saw different input (iterations before it agree, so the solver and z-update calls up to %d did the same work)",
				i, s.bytesPerIter[i], res.History[i].Bytes, i-1)
		}
	}
	var scale, worst float64
	at := -1
	for i, v := range res.Z {
		scale = math.Max(scale, math.Abs(v))
		if d := math.Abs(v - s.z()[i]); d > worst {
			worst, at = d, i
		}
	}
	if worst > 1e-6*math.Max(scale, 1e-300) {
		return fmt.Errorf("shadow round diverged: byte counts agree on all %d iterations but final z differs from core.Run's by %.3g at coordinate %d (relative %.3g > 1e-6) — a solver or z-update call rounded differently", k, worst, at, worst/scale)
	}
	if e := s.p.relError(s.z()); !(e <= s.w.errorBound()) {
		return fmt.Errorf("shadow round misses the target at K*=%d: relative error %.4g", k, e)
	}
	if s.w.pinK == 0 && k > 1 && prevErr <= target {
		return fmt.Errorf("shadow round meets the target before K*=%d (relative error %.4g one iteration earlier)", k, prevErr)
	}
	return nil
}

// run replays k iterations and returns the relative error one iteration
// before the end (evaluated outside every span).
func (s *shadow) run(k int) (prevErr float64, err error) {
	prevErr = math.Inf(1)
	for iter := 0; iter < k; iter++ {
		if iter == k-1 && k > 1 {
			prevErr = s.p.relError(s.z())
		}
		if err := s.iterate(iter); err != nil {
			return prevErr, err
		}
	}
	return prevErr, nil
}
