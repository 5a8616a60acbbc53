package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// Property: zFromW on a sparse W is exactly equivalent to the dense
// ZUpdateL1 followed by compression — the sparse fast path must never
// change the math — and zFromWBlocks to the dense ZUpdateL1Blocks, blocks
// with no live subscriber included: whatever W holds there, ±Inf and NaN
// too, z stays 0 and gets no entry.
func TestZFromWMatchesDenseUpdate(t *testing.T) {
	f := func(seed int64, dimRaw, nRaw, blocksRaw uint8) bool {
		dim := int(dimRaw%60) + 1
		n := int(nRaw%8) + 1
		r := rand.New(rand.NewSource(seed))
		lambda := r.Float64() * 2
		rho := r.Float64() + 0.1

		w := sparse.NewVector(dim, 0)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.4 {
				w.Append(int32(j), r.NormFloat64()*4)
			}
		}
		got := zFromW(new(sparse.Vector), w, lambda, rho, n)
		if got.Check() != nil {
			return false
		}
		want := make([]float64, dim)
		solver.ZUpdateL1(want, w.ToDense(), lambda, rho, n)
		if !vec.Equal(got.ToDense(), want) {
			return false
		}

		// Blocks with no live subscriber: their entries turn ±Inf or NaN.
		part := shard.NewPartition(dim, int(blocksRaw)%dim+1)
		offs, counts := partOffs(part), make([]int, part.Blocks)
		for b := range counts {
			counts[b] = r.Intn(n + 1)
		}
		for k, j := range w.Index {
			if counts[part.BlockOf(int(j))] == 0 {
				w.Value[k] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
			}
		}
		got = zFromWBlocks(got, w, lambda, rho, offs, counts)
		solver.ZUpdateL1Blocks(want, w.ToDense(), lambda, rho, offs, counts)
		wantSparse := sparse.FromDense(want)
		return got.Check() == nil && slices.Equal(got.Index, wantSparse.Index) && vec.Equal(got.Value, wantSparse.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// partOffs is a partition's block boundaries [0, ..., dim], the offs of
// zFromWBlocks.
func partOffs(part shard.Partition) []int {
	offs := make([]int, part.Blocks+1)
	for b := 0; b < part.Blocks; b++ {
		offs[b] = part.Chunk(b).Lo
	}
	offs[part.Blocks] = part.Dim
	return offs
}

// applyFlat is the flat path's apply on one worker: z from the reduced W by
// the one z-update body, then applyZ.
func applyFlat(w *worker, cfg Config, bigW *sparse.Vector, offs, counts []int) {
	w.applyZ(cfg, zFromWBlocks(new(sparse.Vector), bigW, cfg.Lambda, cfg.Rho, offs, counts))
}

// storeFixture draws a partition, a subscription map over it — derived from
// random active columns, or (one time in four) the full map — and one
// worker per rank with random primal/dual state and its store initialized.
func storeFixture(r *rand.Rand, dimRaw, blocksRaw, worldRaw uint8) (*shard.Map, []*worker) {
	return storeFixtureOn(r, int(dimRaw%90)+1, int(blocksRaw%12)+1, int(worldRaw%5)+1, r.Intn(4) == 0)
}

// storeFixtureOn is storeFixture at a given shape and placement: full
// subscribes every rank to every block whatever its columns touch.
func storeFixtureOn(r *rand.Rand, dim, blocks, world int, full bool) (*shard.Map, []*worker) {
	part := shard.NewPartition(dim, blocks)
	active := make([][]int32, world)
	for i := range active {
		density := r.Float64()
		for j := 0; j < dim; j++ {
			if r.Float64() < density {
				active[i] = append(active[i], int32(j))
			}
		}
	}
	m := shard.NewMap(part, active)
	if full {
		m = shard.FullMap(part, world)
	}
	ws := make([]*worker, world)
	for rank, cols := range active {
		w := &worker{rank: rank, dim: dim, active: cols}
		w.xA, w.yA, w.zA = make([]float64, len(cols)), make([]float64, len(cols)), make([]float64, len(cols))
		for i := range cols {
			w.xA[i], w.yA[i] = r.NormFloat64(), r.NormFloat64()
		}
		w.initStore(m)
		ws[rank] = w
	}
	return m, ws
}

// movingSparse draws a vector whose support sits in a random window of the
// dimension at a random density — full, sparse or empty — so consecutive
// draws shrink, grow and move the support.
func movingSparse(r *rand.Rand, dim int) *sparse.Vector {
	lo, hi := r.Intn(dim+1), r.Intn(dim+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	density := []float64{0, 0.1, 0.5, 1}[r.Intn(4)]
	v := sparse.NewVector(dim, 0)
	for j := lo; j < hi; j++ {
		if r.Float64() < density {
			v.Append(int32(j), r.NormFloat64()*4)
		}
	}
	return v
}

// holdsRestricted reports whether w holds exactly ref restricted to its
// subscription — zSparse its sparse form in global coordinates, zA its
// values at the active columns — and returns the restriction. A stale entry
// left in zA by an earlier iterate fails the column comparison.
func holdsRestricted(w *worker, ref []float64) ([]float64, bool) {
	want := make([]float64, w.dim)
	for _, b := range w.smap.Subs[w.rank] {
		c := w.smap.Part.Chunk(int(b))
		copy(want[c.Lo:c.Hi], ref[c.Lo:c.Hi])
	}
	for i, c := range w.active {
		if w.zA[i] != want[c] {
			return nil, false
		}
	}
	wantSparse := sparse.FromDenseInto(new(sparse.Vector), want)
	return want, w.zSparse.Check() == nil && w.zSparse.Dim == w.dim &&
		slices.Equal(w.zSparse.Index, wantSparse.Index) &&
		vec.Equal(w.zSparse.Value, wantSparse.Value)
}

// dualMoved reports whether w's dual is y0 + ρ(x − z) over its active
// columns.
func dualMoved(w *worker, y0, z []float64, rho float64) bool {
	for i, c := range w.active {
		if w.yA[i] != y0[i]+rho*(w.xA[i]-z[c]) {
			return false
		}
	}
	return true
}

// Property: the flat path's apply — zFromWBlocks over the reduced W, then
// applyZ into the compact subscribed-block store — equals the reference
// dense solver.ZUpdateL1Blocks restricted to the rank's subscription bit for
// bit, its sparse view equals sparse.FromDenseInto of that, and the dual
// update reads the same z — across a SEQUENCE of applies whose supports
// shrink and move, so an entry of an earlier iterate surviving in the store
// is caught. W deliberately covers coordinates outside the subscription (the
// replicated aggregate is full-width) and counts include blocks with no live
// subscriber.
func TestFlatApplyMatchesBlockUpdate(t *testing.T) {
	f := func(seed int64, dimRaw, blocksRaw, worldRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, ws := storeFixture(r, dimRaw, blocksRaw, worldRaw)
		part := m.Part
		offs := partOffs(part)
		counts := make([]int, part.Blocks)
		ref := make([]float64, part.Dim)
		for step := 0; step < 5; step++ {
			cfg := Config{Lambda: r.Float64() * 2, Rho: r.Float64() + 0.1}
			for b := range counts {
				counts[b] = r.Intn(len(ws) + 1)
			}
			bigW := movingSparse(r, part.Dim)
			solver.ZUpdateL1Blocks(ref, bigW.ToDense(), cfg.Lambda, cfg.Rho, offs, counts)
			for _, w := range ws {
				y0 := vec.Clone(w.yA)
				applyFlat(w, cfg, bigW, offs, counts)
				want, ok := holdsRestricted(w, ref)
				if !ok || !dualMoved(w, y0, want, cfg.Rho) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the store after ANY sequence of the flat apply, applyZ and rejoin is
// the last iterate restricted to the subscription — the twin of the test
// above for keepZ, the one delivery body. Each op's iterate arrives in
// global coordinates over the whole dimension with a support that shrinks
// and moves; applyZ and the flat apply move the dual, rejoin leaves it and only
// ever advances the clock.
func TestKeepZHoldsLastIterate(t *testing.T) {
	f := func(seed int64, dimRaw, blocksRaw, worldRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, ws := storeFixture(r, dimRaw, blocksRaw, worldRaw)
		dim, offs := m.Part.Dim, partOffs(m.Part)
		ones := make([]int, m.Part.Blocks)
		for b := range ones {
			ones[b] = 1
		}
		for step := 0; step < 8; step++ {
			cfg := Config{Rho: r.Float64() + 0.1} // λ = 0, one contributor: the flat apply's z is W/ρ
			v := movingSparse(r, dim)
			op := r.Intn(3)
			for _, w := range ws {
				y0, clock := vec.Clone(w.yA), w.clock
				ref := v.ToDense()
				switch op {
				case 0:
					w.applyZ(cfg, v)
				case 1:
					w.rejoin(v, clock+float64(r.Intn(3)-1))
				case 2:
					applyFlat(w, cfg, v, offs, ones)
					vec.Scale(1/cfg.Rho, ref)
				}
				want, ok := holdsRestricted(w, ref)
				if !ok {
					return false
				}
				if op == 1 {
					if !vec.Equal(w.yA, y0) || w.clock < clock {
						return false
					}
				} else if !dualMoved(w, y0, want, cfg.Rho) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: b-bit quantization has relative error ≤ 1/(2^(b−1)−1) of the
// vector's max magnitude, elementwise, and preserves signs of survivors.
func TestQuantizationErrorBound(t *testing.T) {
	f := func(seed int64, pick8 bool) bool {
		bits := 16
		if pick8 {
			bits = 8
		}
		r := rand.New(rand.NewSource(seed))
		dim := r.Intn(80) + 1
		orig := sparse.NewVector(dim, 0)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				orig.Append(int32(j), r.NormFloat64()*10)
			}
		}
		var scale float64
		for _, v := range orig.Value {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		q := orig.Clone()
		exchange.QuantizeSparseBits(q, bits)
		if q.Check() != nil {
			return false
		}
		bound := scale/float64(int(1)<<(bits-1)-1)/2 + 1e-12
		od, qd := orig.ToDense(), q.ToDense()
		for j := range od {
			if math.Abs(od[j]-qd[j]) > bound {
				return false
			}
			if qd[j] != 0 && od[j] != 0 && math.Signbit(qd[j]) != math.Signbit(od[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: residuals are non-negative, zero iff full consensus and no
// movement.
func TestResidualProperties(t *testing.T) {
	train, _ := testData(t, 60)
	cfg := baseConfig(GCADMM, 2, 2)
	ws := newWorkers(cfg, train)
	replicated := shard.FullMap(shard.NewPartition(train.Dim(), 1), len(ws))
	for _, w := range ws {
		w.initStore(replicated)
	}
	z := &zSummary{z: make([]float64, train.Dim())}
	zPrev := &zSummary{z: make([]float64, train.Dim())}
	p, d := residuals(ws, z, zPrev, cfg.Rho)
	// x=z=0 initially: perfect consensus, no movement.
	if p != 0 || d != 0 {
		t.Fatalf("initial residuals %v %v, want 0 0", p, d)
	}
	// Perturb one worker's x: primal must become positive.
	if len(ws[0].active) == 0 {
		t.Skip("degenerate shard")
	}
	ws[0].xA[0] = 1
	p, d = residuals(ws, z, zPrev, cfg.Rho)
	if p <= 0 || d != 0 {
		t.Fatalf("perturbed residuals %v %v", p, d)
	}
	// Move z: dual becomes positive.
	z.z[0] = 0.5
	z.rescan()
	_, d = residuals(ws, z, zPrev, cfg.Rho)
	if d <= 0 {
		t.Fatalf("dual residual %v after z moved", d)
	}
}

// Property: wSparseInto yields the mathematical w = y + ρx reconstructed at
// full dimension, where off-active x_j = z_j and y_j = 0.
func TestWSparseMatchesDefinition(t *testing.T) {
	train, _ := testData(t, 80)
	cfg := baseConfig(GCADMM, 2, 2)
	cfg.MaxIter = 3
	// Drive a few iterations so x, y, z are non-trivial.
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	ws := newWorkers(cfg, train)
	replicated := shard.FullMap(shard.NewPartition(train.Dim(), 1), len(ws))
	for _, w := range ws {
		w.initStore(replicated)
	}
	pool := newComputePool()
	defer pool.close()
	for iter := 0; iter < 3; iter++ {
		pool.run(cfg, ws, iter)
		acc := sparse.NewAccumulator(train.Dim())
		for _, w := range ws {
			acc.Add(w.wSparseInto(new(sparse.Vector), cfg.Rho))
		}
		bigW := acc.Sum()
		for _, w := range ws {
			w.applyZ(cfg, zFromW(new(sparse.Vector), bigW, cfg.Lambda, cfg.Rho, len(ws)))
		}
	}
	for _, w := range ws {
		got := w.wSparseInto(new(sparse.Vector), cfg.Rho).ToDense()
		want := make([]float64, train.Dim())
		// Reconstruct: active coords from (xA, yA); off-active from ρ·z.
		w.zSparse.ToDenseInto(want) // the full dimension under the one-block map
		vec.Scale(cfg.Rho, want)
		for i, c := range w.active {
			want[c] = w.yA[i] + cfg.Rho*w.xA[i]
		}
		if !vec.WithinTol(got, want, 1e-12) {
			t.Fatalf("worker %d wSparse deviates from definition", w.rank)
		}
	}
}
