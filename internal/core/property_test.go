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
// change the math.
func TestZFromWMatchesDenseUpdate(t *testing.T) {
	f := func(seed int64, dimRaw, nRaw uint8) bool {
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
		got := zFromW(w, lambda, rho, n)
		if got.Check() != nil {
			return false
		}
		want := make([]float64, dim)
		solver.ZUpdateL1(want, w.ToDense(), lambda, rho, n)
		return vec.Equal(got.ToDense(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: worker.applyW — the z-update applied over the reduced W's
// support, straight into the compact subscribed-block store — equals the
// reference dense solver.ZUpdateL1Blocks restricted to the rank's
// subscription bit for bit, its sparse view equals sparse.FromDenseInto of
// that, and the dual update reads the same z. W deliberately covers
// coordinates outside the subscription (the replicated aggregate is
// full-width) and counts include blocks with no live subscriber.
func TestApplyWMatchesBlockUpdate(t *testing.T) {
	f := func(seed int64, dimRaw, blocksRaw, worldRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		dim := int(dimRaw%90) + 1
		part := shard.NewPartition(dim, int(blocksRaw%12)+1)
		world := int(worldRaw%5) + 1
		cfg := Config{Lambda: r.Float64() * 2, Rho: r.Float64() + 0.1}

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
		if r.Intn(4) == 0 {
			m = shard.FullMap(part, world)
		}
		offs := make([]int, part.Blocks+1)
		counts := make([]int, part.Blocks)
		for b := range counts {
			offs[b] = part.Chunk(b).Lo
			counts[b] = r.Intn(world + 1)
		}
		offs[part.Blocks] = dim
		bigW := sparse.NewVector(dim, 0)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				bigW.Append(int32(j), r.NormFloat64()*4)
			}
		}
		ref := make([]float64, dim)
		solver.ZUpdateL1Blocks(ref, bigW.ToDense(), cfg.Lambda, cfg.Rho, offs, counts)

		for rank, cols := range active {
			w := &worker{rank: rank, dim: dim, active: cols}
			w.xA, w.yA = make([]float64, len(cols)), make([]float64, len(cols))
			for i := range cols {
				w.xA[i], w.yA[i] = r.NormFloat64(), r.NormFloat64()
			}
			y0 := vec.Clone(w.yA)
			w.initStore(m)
			for i := range w.zStore {
				w.zStore[i] = r.NormFloat64() // stale state applyW must overwrite
			}
			w.applyW(cfg, bigW, counts)

			want := make([]float64, dim) // ref restricted to the subscription
			for i, b := range m.Subs[rank] {
				c := part.Chunk(int(b))
				copy(want[c.Lo:c.Hi], ref[c.Lo:c.Hi])
				if !vec.Equal(w.zStore[w.subOff[i]:w.subOff[i+1]], ref[c.Lo:c.Hi]) {
					return false
				}
			}
			wantSparse := sparse.FromDenseInto(new(sparse.Vector), want)
			if w.zSparse.Check() != nil || w.zSparse.Dim != dim ||
				!slices.Equal(w.zSparse.Index, wantSparse.Index) ||
				!vec.Equal(w.zSparse.Value, wantSparse.Value) {
				return false
			}
			for i, c := range cols {
				if w.yA[i] != y0[i]+cfg.Rho*(w.xA[i]-want[c]) {
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
	z := make([]float64, train.Dim())
	zPrev := make([]float64, train.Dim())
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
	z[0] = 0.5
	_, d = residuals(ws, z, zPrev, cfg.Rho)
	if d <= 0 {
		t.Fatalf("dual residual %v after z moved", d)
	}
}

// Property: wSparse equals the mathematical w = y + ρx reconstructed at
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
		vs := make([]*sparse.Vector, len(ws))
		for i, w := range ws {
			vs[i] = w.wSparse(cfg.Rho)
		}
		bigW := sumSparse(train.Dim(), vs)
		for _, w := range ws {
			w.applyW(cfg, bigW, []int{len(ws)})
		}
	}
	for _, w := range ws {
		got := w.wSparse(cfg.Rho).ToDense()
		want := make([]float64, train.Dim())
		// Reconstruct: active coords from (xA, yA); off-active from ρ·z.
		copy(want, w.zStore) // the full dimension under the one-block map
		vec.Scale(cfg.Rho, want)
		for i, c := range w.active {
			want[c] = w.yA[i] + cfg.Rho*w.xA[i]
		}
		if !vec.WithinTol(got, want, 1e-12) {
			t.Fatalf("worker %d wSparse deviates from definition", w.rank)
		}
	}
}
